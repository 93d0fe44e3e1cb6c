import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tpi.cli import cli

DYN = {
    "schema": 1,
    "kind": "dynamics",
    "seeds": {"count": 4, "base": 0},
    "d": 40,
    "k": 90,
    "init_correlation": [0.3, 0.4],
    "power": {"max_iters": 8},
    "accept": {"success_correlation": 0.95, "within_iterations": 8,
               "success_rate": 0.95},
}

REC = {
    "schema": 1, "kind": "recovery",
    "seeds": {"count": 1, "base": 0},
    "d": 10, "k": 10, "components": "orthonormal",
    "weights": [1.0, 2.0], "inits": "columns+noise", "init_noise": 0.3,
    "accept": {"require_components": 10, "min_correlation": 0.99999999,
               "weight_tol": 1e-6},
}


def _write(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def test_no_command_and_help(capsys):
    assert cli([]) == 2
    assert cli(["--help"]) == 0
    out = capsys.readouterr().out
    assert "decompose" in out and "probe" in out


def test_missing_config_file(tmp_path, capsys):
    rc = cli(["dynamics", "--config", str(tmp_path / "nope.json")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_wrong_kind_for_subcommand(tmp_path, capsys):
    cfg = _write(tmp_path, "dyn.json", DYN)
    rc = cli(["decompose", "--config", cfg])
    assert rc == 2
    assert "kind" in capsys.readouterr().err


def test_passing_run_exits_zero(tmp_path, capsys):
    cfg = _write(tmp_path, "rec.json", REC)
    rc = cli(["decompose", "--config", cfg, "--out", str(tmp_path / "run")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "recovery: PASS" in out and "config_hash=" in out


def test_failing_thresholds_exit_one(tmp_path, capsys):
    doc = dict(REC, accept=dict(REC["accept"], weight_tol=1e-18))
    cfg = _write(tmp_path, "rec.json", doc)
    rc = cli(["decompose", "--config", cfg, "--out", str(tmp_path / "run")])
    assert rc == 1
    assert "recovery: FAIL" in capsys.readouterr().out


def test_seed_override_changes_hash(tmp_path, capsys):
    cfg = _write(tmp_path, "rec.json", REC)
    cli(["decompose", "--config", cfg, "--out", str(tmp_path / "a")])
    cli(["decompose", "--config", cfg, "--seed", "7",
         "--out", str(tmp_path / "b")])
    ra = json.loads((tmp_path / "a" / "report.json").read_text())
    rb = json.loads((tmp_path / "b" / "report.json").read_text())
    assert ra["config_hash"] != rb["config_hash"]
    assert rb["seed_base"] == 7


def test_thread_flag_is_byte_deterministic(tmp_path):
    cfg = _write(tmp_path, "dyn.json", DYN)
    cli(["dynamics", "--config", cfg, "--threads", "1",
         "--out", str(tmp_path / "t1")])
    cli(["dynamics", "--config", cfg, "--threads", "4",
         "--out", str(tmp_path / "t4")])
    assert (tmp_path / "t1" / "table.csv").read_bytes() == \
        (tmp_path / "t4" / "table.csv").read_bytes()


def test_report_round_trip(tmp_path, capsys):
    cfg = _write(tmp_path, "rec.json", REC)
    cli(["decompose", "--config", cfg, "--out", str(tmp_path / "run")])
    capsys.readouterr()
    assert cli(["report", str(tmp_path / "run"), "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert "success_rate" in doc
    assert cli(["report", str(tmp_path / "run")]) == 0
    assert "metric,value" in capsys.readouterr().out


def test_report_detects_tampered_config(tmp_path, capsys):
    cfg = _write(tmp_path, "rec.json", REC)
    cli(["decompose", "--config", cfg, "--out", str(tmp_path / "run")])
    p = tmp_path / "run" / "config.json"
    doc = json.loads(p.read_text())
    doc["d"] = 11
    p.write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")
    capsys.readouterr()
    assert cli(["report", str(tmp_path / "run")]) == 2
    assert "mismatch" in capsys.readouterr().err


def test_generate_subcommand(tmp_path):
    doc = {"schema": 1, "kind": "generate", "what": "tensor",
           "seeds": {"base": 5}, "d": 6, "k": 8,
           "components": "unit-sphere", "weights": [1.0, 1.0]}
    cfg = _write(tmp_path, "gen.json", doc)
    rc = cli(["generate", "--config", cfg, "--out", str(tmp_path / "g")])
    assert rc == 0
    assert (tmp_path / "g" / "tensor.tpi3").exists()
    assert (tmp_path / "g" / "generate.json").exists()


def test_invalid_config_json_exits_two(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    assert cli(["dynamics", "--config", str(p)]) == 2


def test_zero_threads_exits_two(tmp_path, capsys):
    cfg = _write(tmp_path, "dyn.json", DYN)
    rc = cli(["dynamics", "--config", cfg, "--threads", "0",
              "--out", str(tmp_path / "run")])
    assert rc == 2
    assert "thread count" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_non_integer_thread_variable_exits_two(tmp_path, capsys, monkeypatch):
    cfg = _write(tmp_path, "dyn.json", DYN)
    monkeypatch.setenv("TPI_THREADS", "abc")
    rc = cli(["dynamics", "--config", cfg, "--out", str(tmp_path / "run")])
    assert rc == 2
    assert "'abc'" in capsys.readouterr().err


def test_one_dimensional_dynamics_exits_two(tmp_path, capsys):
    # at d = 1 no start has correlation in (0, 1) with a_1
    cfg = _write(tmp_path, "d1.json", {"schema": 1, "kind": "dynamics", "d": 1, "k": 1,
                                       "init_correlation": [0.3, 0.4]})
    rc = cli(["dynamics", "--config", cfg, "--out", str(tmp_path / "run")])
    assert rc == 2
    assert "d >= 2" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def _scipy_modules_after(code):
    """The scipy modules a fresh interpreter holds after running ``code``."""
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import json, sys, tpi\n" + code
            + "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    return out.stdout.strip().splitlines()[-1]


def test_import_and_load_config_do_not_import_scipy():
    code = f"tpi.load_config(json.loads({json.dumps(json.dumps(REC))}))\n"
    assert _scipy_modules_after(code) == "[]"


def test_recovery_and_sample_complexity_runs_do_not_import_scipy(tmp_path):
    # both runs match estimates to the truth with match_and_score
    multiview = {"schema": 1, "kind": "recovery", "d": 8, "k": 12, "source": "multiview",
                 "zeta": 0.05, "n": 500, "inits": 20, "tensor_mode": "implicit-samples"}
    pooled = {"schema": 1, "kind": "sample-complexity", "d": 6, "k": 8, "zeta": 0.05,
              "sample_sizes": [200, 400], "compare_decomposition": {"n": 1000, "inits": 10}}
    code = "".join(
        f"tpi.run_experiment(tpi.load_config(json.loads({json.dumps(json.dumps(doc))}), "
        f"out={str(tmp_path / name)!r}))\n"
        for name, doc in (("multiview", multiview), ("pooled", pooled)))
    assert _scipy_modules_after(code) == "[]"


_BASE = {"schema": 1, "kind": "dynamics", "d": 10, "k": 12, "init_correlation": [0.3, 0.4]}
_TENSOR = {"schema": 1, "kind": "recovery", "d": 6, "k": 8}
_MULTIVIEW = {"schema": 1, "kind": "recovery", "d": 6, "k": 8, "source": "multiview",
              "zeta": 0.05, "n": 200, "inits": 10}
_POOLED = {"schema": 1, "kind": "sample-complexity", "d": 6, "k": 8, "zeta": 0.05,
           "sample_sizes": [100, 200]}
_GEN_TENSOR = {"schema": 1, "kind": "generate", "what": "tensor", "d": 6, "k": 8}
_GEN_SAMPLES = {"schema": 1, "kind": "generate", "what": "samples", "d": 6, "k": 8, "n": 40}


@pytest.mark.parametrize("doc", [
    pytest.param(dict(_BASE, d="abc"), id="d-string"),
    pytest.param(dict(_BASE, d=None), id="d-null"),
    # would run at d = 10 while hashing 10.7
    pytest.param(dict(_BASE, d=10.7), id="d-fraction"),
    pytest.param(dict(_BASE, init_correlation=[0.3, "a"]), id="init-correlation-string"),
    pytest.param(dict(_BASE, power={"max_iters": "5"}), id="max-iters-string"),
    pytest.param(dict(_BASE, power=[1]), id="power-list"),
    pytest.param(dict(_BASE, seeds=[1]), id="seeds-list"),
    pytest.param(dict(_BASE, accept=[1]), id="accept-list"),
    pytest.param(dict(_BASE, kind="noise-sweep", noise_norm_factors="ab"), id="factors-string"),
    pytest.param({"schema": 1, "kind": "probe", "checks": [1]}, id="probe-check-number"),
    pytest.param({"schema": 1, "kind": "sample-complexity", "d": 5, "k": 6, "zeta": 0.05,
                  "sample_sizes": 100}, id="sample-sizes-number"),
    pytest.param({"schema": 1, "kind": "recovery", "d": 5, "k": 6, "inits": "xyz"},
                 id="inits-string"),
    # columns that are not unit norm cannot make a factored tensor
    pytest.param({"schema": 1, "kind": "recovery", "d": 8, "k": 5, "components": "gaussian"},
                 id="components-gaussian"),
    # fields that a run of this variant never reads
    pytest.param(dict(_TENSOR, n=100), id="tensor-recovery-n"),
    pytest.param(dict(_TENSOR, zeta=0.1), id="tensor-recovery-zeta"),
    pytest.param(dict(_TENSOR, snr_target=1.0), id="tensor-recovery-snr-target"),
    pytest.param(dict(_TENSOR, tensor_mode="implicit-samples"), id="tensor-recovery-tensor-mode"),
    pytest.param(dict(_MULTIVIEW, components="orthonormal"), id="multiview-components"),
    pytest.param(dict(_MULTIVIEW, weights=2.0), id="multiview-weights"),
    pytest.param(dict(_MULTIVIEW, init_noise=0.3), id="multiview-init-noise"),
    # multiview runs have no true weights, so weight_max_err is NaN
    pytest.param(dict(_MULTIVIEW, accept={"weight_tol": 1.0}), id="multiview-weight-tol"),
    pytest.param(dict(_GEN_TENSOR, n=40), id="generate-tensor-n"),
    pytest.param(dict(_GEN_TENSOR, zeta=0.1), id="generate-tensor-zeta"),
    pytest.param(dict(_GEN_TENSOR, views=4), id="generate-tensor-views"),
    pytest.param(dict(_GEN_SAMPLES, components="unit-sphere"), id="generate-samples-components"),
    pytest.param(dict(_GEN_SAMPLES, weights=2.0), id="generate-samples-weights"),
    pytest.param(dict(_TENSOR, power={"trace_level": "none"}), id="recovery-trace-level"),
    pytest.param(dict(_TENSOR, power={"convergence_gamma": 0.1}), id="recovery-convergence-gamma"),
    pytest.param(dict(_POOLED, power={"trace_level": "full"}), id="pooled-trace-level"),
    pytest.param(dict(_POOLED, power={"convergence_gamma": 0.1}), id="pooled-convergence-gamma"),
    # "none" used to end in an IndexError, "full" changed nothing
    pytest.param(dict(_BASE, power={"trace_level": "none"}), id="dynamics-trace-level-none"),
    pytest.param(dict(_BASE, power={"trace_level": "full"}), id="dynamics-trace-level-full"),
    pytest.param(dict(_TENSOR, cluster={"refine_iters": 2}), id="cluster-refine-iters"),
    # 0 used to mean "no cap"
    pytest.param(dict(_TENSOR, cluster={"max_components": 0}), id="cluster-max-components"),
    pytest.param(dict(_POOLED, cluster={"max_components": 3}), id="pooled-max-components"),
    # no decomposition runs without compare_decomposition
    pytest.param(dict(_POOLED, power={"max_iters": 3}), id="pooled-power-without-decomposition"),
    pytest.param(dict(_POOLED, cluster={"nu": 0.9}), id="pooled-cluster-without-decomposition"),
    # an absent max_iters means 15 steps, so null would be a second default
    pytest.param(dict(_BASE, power={"max_iters": None}), id="dynamics-max-iters-null"),
    pytest.param(dict(_BASE, kind="noise-sweep", noise_norm_factors=[0.1],
                      power={"max_iters": None}), id="noise-sweep-max-iters-null"),
])
def test_malformed_config_exits_two(tmp_path, capsys, doc):
    command = {"dynamics": "dynamics", "noise-sweep": "dynamics", "probe": "probe",
               "generate": "generate"}.get(doc["kind"], "decompose")
    rc = cli([command, "--config", _write(tmp_path, "bad.json", doc),
              "--out", str(tmp_path / "run")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("base", [4, 7])
def test_degenerate_tensor_exits_two(tmp_path, capsys, base):
    # d = 1, k = 2 at these seeds draws components +1 and -1 with unit
    # weights, so T = 0 and the first power update vanishes
    doc = {"schema": 1, "kind": "recovery", "d": 1, "k": 2, "seeds": {"count": 1, "base": base}}
    rc = cli(["decompose", "--config", _write(tmp_path, "zero.json", doc),
              "--out", str(tmp_path / "run")])
    assert rc == 2
    assert "error: " in capsys.readouterr().err
