"""One benchmark process: imports ``tpi`` from the checkout, runs one
workload and reports what it measured.

``run.py`` starts this script and times it.  It prints ``ready`` once ``tpi``
is imported and the config is loaded (the end of set-up), then, unless
``--setup-only`` is given, one JSON line with the measurements.

Every ``run_experiment`` call writes its artifacts to ``--out``, which is
emptied before each call.  The first call runs on one worker; its artifacts
are the reference every later call must reproduce byte for byte
(``report.json`` without its ``wall_clock_s`` field, which is a time).  On
the pooled workload this checks that two workers write what one writes.
"""

import argparse
import ctypes
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

from instrument import layer_metrics, traced
from spans import SpanRecorder
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
ARTIFACTS = ("config.json", "table.csv", "traces.jsonl")


def artifact_digest(out):
    h = hashlib.sha256()
    for name in ARTIFACTS:
        path = out / name
        if path.exists():
            h.update(name.encode() + b"\0" + path.read_bytes() + b"\0")
    report = json.loads((out / "report.json").read_text())
    report.pop("wall_clock_s")
    h.update(json.dumps(report, sort_keys=True).encode())
    return h.hexdigest()


def is_strict_json(path):
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    try:
        json.loads(path.read_text(), parse_constant=reject)
    except ValueError:
        return False
    return True


def blas_environment():
    """BLAS vendor and version from numpy's build record, plus the thread
    count the loaded OpenBLAS reports and the thread variables as found."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_vendor": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": None,
        "thread_env": {var: os.environ.get(var, "unset") for var in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "TPI_THREADS")},
    }
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    except OSError:  # no /proc: the thread count stays unknown
        libs = set()
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                env["blas_threads"] = int(fn())
                return env
    return env


class Runner:
    """Runs calls, checks their artifacts and counts what failed."""

    def __init__(self, tpi, config, out):
        self.tpi, self.config, self.out = tpi, config, out
        self.reference = None
        self.attempted = self.failed = 0
        self.failures = []

    def call(self, threads, label, recorder=None):
        """One checked run_experiment call; returns (wall s, report) or None."""
        self.attempted += 1
        shutil.rmtree(self.out, ignore_errors=True)  # no artifact outlives its call
        try:
            if recorder is None:
                start = perf_counter()
                report = self.tpi.run_experiment(self.config, threads=threads)
                wall = perf_counter() - start
            else:
                with traced(recorder):
                    run = recorder.wrap(self.tpi.run_experiment, "experiments.run_experiment")
                    start = perf_counter()
                    report = run(self.config, threads=threads)
                    wall = perf_counter() - start
            digest = artifact_digest(self.out)
        except Exception as exc:  # a crash is a failed run, reported and counted
            traceback.print_exc(file=sys.stderr)
            return self._fail(f"{label}: {type(exc).__name__}: {exc}")
        if self.reference is None:
            self.reference = digest
        elif digest != self.reference:
            return self._fail(f"{label}: artifacts differ from the one-worker reference")
        return wall, report

    def _fail(self, message):
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(message)
        return None


def measure(tpi, workload, config, out, seconds, trace, spans_path):
    runner = Runner(tpi, config, out)
    # The one-worker reference comes first and is timed.  On a one-worker
    # workload it is an ordinary call; on a pooled one its time is the
    # baseline of experiments.pool_speedup, and the run's seconds start after it.
    start = perf_counter()
    first = runner.call(1, "reference")
    result = {"quality_error": None, "quality": {}, "reference_wall_s": None}
    walls = []
    if first is not None:
        result["reference_wall_s"] = first[0]
        result["quality_error"], result["quality"] = workload.quality(first[1], config.data)
        if workload.threads == 1:
            walls.append(first[0])
    if workload.threads > 1:
        start = perf_counter()

    while True:
        typical = statistics.median(walls) if walls else 0.0
        if perf_counter() - start + typical / 2 >= seconds:
            break
        done = runner.call(workload.threads, f"run {runner.attempted}")
        if done is not None:
            walls.append(done[0])
    result["walls"] = walls
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if trace and walls and first is not None:
        result["layers"] = trace_layers(runner, workload, out, walls, first[0], spans_path)
    result.update(attempted=runner.attempted, failed=runner.failed, failures=runner.failures)
    return result


def trace_layers(runner, workload, out, walls, reference_wall, spans_path):
    untraced = statistics.median(walls)
    recorder = SpanRecorder()
    done = runner.call(workload.threads, "traced", recorder)
    if done is None:
        return None
    wall = done[0]
    nonstrict = 0 if is_strict_json(out / "report.json") else 1
    recorder.write(spans_path)
    # one worker's wall time over the workload's; 1 on a one-worker workload
    pool_speedup = reference_wall / untraced if workload.threads > 1 else 1.0
    metrics = layer_metrics(recorder, wall, untraced, pool_speedup, nonstrict)
    figure, confirmed = workload.confirms(metrics, recorder.summary(), wall)
    metrics["bench.reason_confirmed"] = int(confirmed)
    return {"metrics": metrics, "traced_wall_s": wall, "reason_figure": figure}


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "tpi" / "__init__.py").is_file():
        sys.stderr.write(f"no tpi sources at {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    import tpi

    workload = WORKLOADS[args.workload]
    out = Path(args.out)
    config = tpi.load_config(workload.config(args.seed), out=out)
    print("ready", flush=True)
    if args.setup_only:
        return 0
    result = measure(tpi, workload, config, out, args.seconds, args.trace, args.spans)
    result["environment"] = blas_environment()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
