"""Print a sha256 of every artifact the frozen and benchmark configs write.

Runs each ``configs/accept*.json`` and each ``perfbench/workloads.py``
config at seeds 0 and 1, once with 1 worker and once with 2, and prints one
line per artifact of the 1-worker run:

    <sha256>  <config> seed=<s> <artifact>

The artifacts are ``config.json``, ``table.csv``, ``traces.jsonl`` (dynamics
kinds only) and ``report.json`` without its ``wall_clock_s`` and
``out_dir``, which vary from run to run.  The exit status is 1 if any
2-worker digest differs from its 1-worker digest, else 0.  Two checkouts
write the same artifacts exactly when this script prints the same lines in
both, so a byte-identity claim is checked by running it in each and
comparing the output (set ``OPENBLAS_NUM_THREADS`` alike for both runs).

Run from anywhere: ``python tools/artifact_digests.py``.  ``tpi`` is
imported from the ``src/`` of the checkout holding this file.
"""

import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from tpi import load_config, run_experiment  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEEDS = (0, 1)
WORKERS = (1, 2)
ARTIFACTS = ("config.json", "table.csv", "traces.jsonl", "report.json")


def _digests(run_dir):
    """{artifact: sha256} of the artifacts in ``run_dir``."""
    out = {}
    for name in ARTIFACTS:
        path = Path(run_dir, name)
        if not path.exists():
            continue
        data = path.read_bytes()
        if name == "report.json":
            report = json.loads(data)
            for key in ("wall_clock_s", "out_dir"):
                report.pop(key)
            data = json.dumps(report, sort_keys=True).encode()
        out[name] = hashlib.sha256(data).hexdigest()
    return out


def main():
    sources = {path.stem: str(path) for path in sorted((ROOT / "configs").glob("accept*.json"))}
    sources.update((f"workload:{name}", w.config) for name, w in WORKLOADS.items())
    mismatches = 0
    with tempfile.TemporaryDirectory() as tmp:
        for label, source in sources.items():
            for seed in SEEDS:
                runs = []
                for workers in WORKERS:
                    out = os.path.join(tmp, f"{label}-{seed}-{workers}")
                    raw = source(seed) if callable(source) else source
                    run_experiment(load_config(raw, seed=seed, out=out), threads=workers)
                    runs.append(_digests(out))
                for name, digest in runs[0].items():
                    print(f"{digest}  {label} seed={seed} {name}", flush=True)
                for name in sorted(set(runs[0]) | set(runs[1])):
                    if runs[0].get(name) != runs[1].get(name):
                        mismatches += 1
                        print(f"MISMATCH  {label} seed={seed} {name}: "
                              f"1 worker {runs[0].get(name)}, 2 workers {runs[1].get(name)}",
                              flush=True)
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
