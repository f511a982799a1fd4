"""Self-tests of the benchmark harness at tiny sizes.

    python3 -m pytest benchmarks/test_harness.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402


def _run_cli(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_emits_every_declared_metric(workload, trace):
    proc = _run_cli(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    env = json.loads(next(line[4:] for line in lines if line.startswith("ENV ")))
    for key in ("python", "numpy", "iad", "nproc", "blas_env", "commit", "seed"):
        assert key in env
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if trace:
        for stage in run.STAGES:
            assert values[f"trace.{stage}.cli.self_s"] >= 0.0
        specfun_calls = values["trace.train.specfun.calls_per_step"]
        assert (specfun_calls == 0.0) == (workload == "desk_edl")
        assert values["trace.attack.evaluation.fgsm_attack.calls_per_epsilon"] >= 1.0
    else:
        assert all(v > 0.0 for v in values.values())


def test_corrupted_report_counts_as_failed_op_not_crash(tmp_path):
    def corrupt(stage, out):
        if stage == "eval":
            with open(out / "reports.csv", "a", encoding="utf-8") as fh:
                fh.write("0,1,2.5,9.0,0.5,3.0\n")  # MI > H > ln 3, and one row too many

    metrics, _, ledger = run.run("desk_iad", 3, 0.0, False, tiny=True,
                                 after_stage=corrupt, workroot=tmp_path)
    assert ledger.failures and any("reports" in f for f in ledger.failures)
    assert metrics["ok_op_ratio"] < 1.0
    assert {m["name"] for m in SPEC["end_to_end"]} <= set(metrics)


def test_tracer_wraps_lookup_sites_and_restores_them():
    run.fresh_import()
    import iad
    from spans import Tracer

    originals = (iad.specfun.digamma, iad.losses.digamma, iad.training.adam_step,
                 iad.evaluation.mutual_information, iad.data.Dataset.__post_init__)
    assert iad.losses.digamma is originals[0]
    tracer = Tracer(iad)
    tracer.install()
    try:
        tracer.stage = "probe"
        assert iad.losses.digamma is iad.specfun.digamma is iad.dirichlet.digamma
        assert iad.losses.digamma is not originals[0]
        iad.evaluation.mutual_information(iad.dirichlet.DirichletParams([2.0, 3.0, 4.0]))
    finally:
        tracer.uninstall()
    assert (iad.specfun.digamma, iad.losses.digamma, iad.training.adam_step,
            iad.evaluation.mutual_information, iad.data.Dataset.__post_init__) == originals
    assert tracer.count("probe", "dirichlet", "mutual_information") == 1
    assert tracer.count("probe", "specfun", "digamma") == 2
    assert tracer.elems[("probe", "specfun")] == 3 + 1
    selfs = tracer.module_self_s("probe")
    assert selfs["specfun"] > 0.0 and selfs["dirichlet"] > 0.0


def test_without_sources_exits_nonzero_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_cli(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
