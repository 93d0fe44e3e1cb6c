"""tpi benchmark: run a workload and report its metrics.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a checkout; ``tpi`` is imported from its ``src/``.
The workload's config is generated from the seed (``perfbench/workloads.py``).
Each run measures set-up five times (four set-up-only processes and the
worker itself), then the worker makes a reference call on one worker and
repeats the workload's call for about ``--seconds`` seconds.  With
``--trace 1`` the worker then makes one traced call and the per-layer metrics
are reported instead of the end-to-end ones.

Human-readable lines go first; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--workload all`` every workload runs in turn and the last line sums them,
with metric names prefixed by the workload.  The full record (every sample,
the environment, the per-layer reason check) goes to
``.perfbench_out/results/``.  The exit code is 0 only when a result was
printed.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from instrument import PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 5
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
              ("quality_error", "ratio"))


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def start_worker(started, name, args, out, spans=None, setup_only=False):
    """Start a worker and time it to "ready"; it is added to ``started``."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", name,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", str(out)]
    if spans:
        cmd += ["--spans", str(spans)]
    if setup_only:
        cmd.append("--setup-only")
    start = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    started.append(proc)
    ready = proc.stdout.readline()
    setup = perf_counter() - start
    if ready.strip() != "ready":
        finish(proc, 10)
        raise RuntimeError(f"worker failed during set-up (exit code {proc.returncode})")
    return proc, setup


def finish(proc, timeout):
    """Wait for a worker; kill it if it overruns.  Returns its remaining stdout."""
    try:
        output, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"worker did not finish within {timeout:.0f} s")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return output


def environment_at_start():
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                        else None),
        "python": platform.python_version(),
        "loadavg_at_start": os.getloadavg(),
    }


def run(name, args):
    env = environment_at_start()
    results_dir = ROOT / ".perfbench_out" / "results"
    out = ROOT / ".perfbench_out" / f"run-{os.getpid()}"
    results_dir.mkdir(parents=True, exist_ok=True)
    tag = f"{name}-seed{args.seed}-trace{args.trace}"
    spans = results_dir / f"{tag}-spans.tsv" if args.trace else None
    started = []
    try:
        setups = []
        for _ in range(SETUP_SAMPLES - 1):
            proc, setup = start_worker(started, name, args, out, setup_only=True)
            finish(proc, 30)
            setups.append(setup)
        proc, setup = start_worker(started, name, args, out, spans)
        setups.append(setup)
        # the timed calls, the reference call before them and a traced call after
        timeout = args.seconds + 140.0
        measured = json.loads(finish(proc, timeout).strip().splitlines()[-1])
    finally:
        for proc in started:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        shutil.rmtree(out, ignore_errors=True)
    env.update(measured.pop("environment"))
    return env, setups, measured, results_dir / f"{tag}.json"


def describe(workload, env, setups, measured, trace):
    """Human-readable lines and the metrics for the last JSON line."""
    walls = measured["walls"]
    lines = [f"workload {workload.name}: {workload.why}",
             "environment: " + json.dumps(env, sort_keys=True)]
    attempted, failed = measured["attempted"], measured["failed"]
    lines.append(f"runs: {attempted} attempted, {failed} failed "
                 f"(failed_fraction {failed / attempted:.4f})")
    lines += [f"failure: {msg}" for msg in measured["failures"]]
    metrics = {}
    if not trace:
        samples = {"wall_s": walls, "setup_s": setups,
                   "peak_rss_mb": [measured["peak_rss_mb"]],
                   "quality_error": [measured["quality_error"]]}
        for name, unit in END_TO_END:
            q1, med, q3 = quartiles(samples[name])
            metrics[name] = {"value": med, "unit": unit}
            lines.append(f"{name} = {med:.6g} {unit} (median; q1 {q1:.6g}, q3 {q3:.6g}; "
                         f"n={len(samples[name])})")
        for name, value in measured["quality"].items():
            lines.append(f"{name} = {value:.6g} (repeats exactly per seed; n=1)")
    else:
        layers = measured["layers"]["metrics"]
        for name, unit, _better in PER_LAYER:
            metrics[name] = {"value": layers[name], "unit": unit}
            lines.append(f"{name} = {layers[name]:.6g} {unit}")
        verdict = "confirmed" if layers["bench.reason_confirmed"] else "REFUTED"
        lines.append(f"stated reason {verdict} (measured {measured['layers']['reason_figure']:.4g}): "
                     f"{workload.reason}")
    return lines, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "tpi" / "__init__.py").is_file():
        sys.stderr.write(f"error: no tpi sources under {ROOT / 'src'}; "
                         "run from the root of a tpi checkout\n")
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = run_one(name, args)
        if results[name] is None:
            return 1
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": value for name, r in results.items()
                        for metric, value in r["metrics"].items()},
        }))
    return 0


def run_one(name, args):
    """Run one workload and print its lines; returns its result, or None."""
    workload = WORKLOADS[name]
    try:
        env, setups, measured, record = run(name, args)
    except RuntimeError as exc:
        sys.stderr.write(f"error: {name}: {exc}\n")
        return None
    if (not measured["walls"] or measured["quality_error"] is None
            or (args.trace and not measured.get("layers"))):
        sys.stderr.write(f"error: {name}: no successful run to measure\n"
                         + "".join(f"failure: {msg}\n" for msg in measured["failures"]))
        return None
    lines, metrics = describe(workload, env, setups, measured, args.trace)
    result = {"correct": measured["failed"] == 0, "attempted": measured["attempted"],
              "failed": measured["failed"], "metrics": metrics}
    record.write_text(json.dumps({"workload": name, "seed": args.seed,
                                  "seconds": args.seconds, "trace": args.trace,
                                  "environment": env, "setup_samples_s": setups,
                                  "measured": measured, "reason": workload.reason,
                                  "result": result}, indent=2) + "\n")
    print("\n".join(lines), flush=True)
    return result


if __name__ == "__main__":
    sys.exit(main())
