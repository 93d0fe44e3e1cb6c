"""Tests of the benchmark's own parts: the span recorder and the metric list
that BENCHMARK.json declares."""

import json
import threading
import time
from pathlib import Path

from instrument import PER_LAYER
from run import END_TO_END
from spans import SpanRecorder
from workloads import WORKLOADS

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def _by_name(recorder):
    selfs = recorder.self_times()
    return {name: (parent, selfs[sid], end - start)
            for sid, parent, name, _tid, start, end in recorder.spans}


def test_nested_spans_self_time_excludes_children():
    rec = SpanRecorder()
    leaf = rec.wrap(lambda: time.sleep(0.02), "leaf")
    leaf_two = rec.wrap(lambda: time.sleep(0.02), "leaf_two")

    def middle():
        leaf()
        leaf_two()
        time.sleep(0.01)

    rec.wrap(middle, "middle")()
    spans = _by_name(rec)
    ids = {name: sid for sid, _p, name, *_ in rec.spans}

    assert spans["middle"][0] is None
    assert spans["leaf"][0] == ids["middle"] and spans["leaf_two"][0] == ids["middle"]
    _parent, self_s, total = spans["middle"]
    children = spans["leaf"][2] + spans["leaf_two"][2]
    assert abs(self_s - (total - children)) < 1e-9
    assert self_s >= 0.0099  # the 10 ms sleep that is middle's own work
    assert abs(spans["leaf"][1] - spans["leaf"][2]) < 1e-12


def test_spans_on_two_threads_nest_under_their_submitter():
    rec = SpanRecorder()
    work = rec.wrap(lambda: time.sleep(0.05), "work")
    barrier = threading.Barrier(2)
    token = rec.open()
    parent = rec.current()

    def task():
        inner = rec.open(parent=parent)
        barrier.wait(timeout=5)
        work()
        rec.close(inner, "task")

    threads = [threading.Thread(target=task) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
    assert not any(t.is_alive() for t in threads)
    rec.close(token, "root")

    selfs = rec.self_times()
    rows = [(sid, p, name, tid, s, e) for sid, p, name, tid, s, e in rec.spans]
    tasks = [r for r in rows if r[2] == "task"]
    works = [r for r in rows if r[2] == "work"]
    root = next(r for r in rows if r[2] == "root")
    assert len(tasks) == 2 and len(works) == 2
    assert {r[1] for r in tasks} == {root[0]}
    assert {r[1] for r in works} == {r[0] for r in tasks}
    assert len({r[3] for r in tasks}) == 2
    # the two tasks overlap in time, so the root's covered part is their
    # union, not their sum
    union = max(r[5] for r in tasks) - min(r[4] for r in tasks)
    assert abs(selfs[root[0]] - ((root[5] - root[4]) - union)) < 1e-9
    assert selfs[root[0]] >= 0.0
    summary = rec.summary()
    assert summary["work"]["calls"] == 2


def test_benchmark_json_lists_the_metrics_the_code_reports():
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == list(PER_LAYER)
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in BENCHMARK["workloads"]] == [w.why for w in WORKLOADS.values()]


def test_seed_zero_draws_like_the_frozen_configs():
    configs = Path(__file__).resolve().parent.parent / "configs"
    frozen = {"multiview-implicit": "accept5_multiview_learning.json",
              "noise-sweep": "accept4_noise_tolerance.json",
              "sample-complexity-pool": "accept6_sample_complexity.json"}
    for name, filename in frozen.items():
        ours = WORKLOADS[name].config(0)
        theirs = json.loads((configs / filename).read_text())
        assert ours["seeds"]["base"] == theirs["seeds"]["base"] == 0
        for key in ("d", "k", "n", "snr_target", "zeta", "init_correlation",
                    "noise_norm_factors", "sample_sizes", "tensor_mode"):
            assert ours.get(key) == theirs.get(key), (name, key)
    assert all(w.config(7)["seeds"]["base"] == 7 for w in WORKLOADS.values())


def test_tracing_wraps_every_layer_and_restores_it(tmp_path):
    import sys

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import tpi
    from instrument import layer_metrics, traced
    from worker import artifact_digest

    experiments = sys.modules["tpi.experiments"]
    before = dict(vars(experiments))
    small = {
        "noise-sweep": {"seeds": {"count": 2, "base": 0}, "d": 8, "k": 12},
        "sample-complexity-pool": {"seeds": {"count": 2, "base": 0}, "d": 5, "k": 6,
                                   "compare_decomposition": {"n": 500, "inits": 4}},
        "multiview-implicit": {"d": 6, "k": 8, "n": 300, "inits": 10},
    }
    for name, override in small.items():
        cfg = dict(WORKLOADS[name].config(0), **override)
        config = tpi.load_config(cfg, out=tmp_path / name)
        tpi.run_experiment(config, threads=1)
        untraced = artifact_digest(tmp_path / name)
        rec = SpanRecorder()
        with traced(rec):
            rec.wrap(tpi.run_experiment, "experiments.run_experiment")(config, threads=2)
        assert artifact_digest(tmp_path / name) == untraced
        metrics = layer_metrics(rec, 1.0, 1.0, 1.0, 0)
        assert set(metrics) == {n for n, _u, _b in PER_LAYER} - {"bench.reason_confirmed"}
        assert metrics["experiments.self_s"] > 0
        seeds = [s for s in rec.spans if s[2] == "experiments.seed"]
        root = next(s for s in rec.spans if s[2] == "experiments.run_experiment")
        assert seeds and all(s[1] == root[0] for s in seeds)
        figure, confirmed = WORKLOADS[name].confirms(metrics, rec.summary(), 1.0)
        assert figure >= 0 and isinstance(confirmed, bool)
        if name == "noise-sweep":
            assert metrics["tensors.contract_1.dense.calls"] > 0
            assert metrics["power.run_power_with_shadow.calls"] == 2
        else:
            assert metrics["models.SampleTensor3.contract_1.calls"] > 0
            assert metrics["power.steps"] > 0
    assert dict(vars(experiments)) == before
    assert sys.modules["tpi.tensors"].contract_1.__module__ == "tpi.tensors"
    assert sys.modules["tpi.models"].SampleTensor3.contract_1.__module__ == "tpi.models"


def test_runner_counts_changed_artifacts_as_failed(tmp_path):
    from worker import Runner

    class FakeTpi:
        calls = 0

        @classmethod
        def run_experiment(cls, config, threads=None):
            cls.calls += 1
            tmp_path.mkdir(exist_ok=True)
            (tmp_path / "config.json").write_text("{}")
            (tmp_path / "table.csv").write_text("pooled\n" if threads == 2 else "one\n")
            if threads != 3:
                (tmp_path / "traces.jsonl").write_text("{}\n")
            (tmp_path / "report.json").write_text(json.dumps({"wall_clock_s": cls.calls}))
            return "report"

    runner = Runner(FakeTpi, None, tmp_path)
    assert runner.call(1, "reference") is not None
    assert runner.call(1, "again") is not None  # only the wall-clock field differs
    assert runner.call(2, "pooled") is None
    assert runner.call(3, "no traces") is None  # the reference's file does not stand in
    assert (runner.attempted, runner.failed) == (4, 2)
    assert runner.failures == ["pooled: artifacts differ from the one-worker reference",
                               "no traces: artifacts differ from the one-worker reference"]
