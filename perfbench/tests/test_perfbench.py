"""Toy-scale self-tests of the benchmark (``python3 -m pytest perfbench/tests -q``).

Most tests run ``perfbench/run.py`` the way a caller does, on tiny inputs
(``--toy``), and check what it prints; the last two check the build digest
and the cluster's seeded session ids directly.
"""

from __future__ import annotations

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
WORKLOADS = ("klp-webtable", "serve-stacked", "edge-churn", "edge-cluster")
END_TO_END = {
    "setup_s": "s",
    "questions_per_s": "1/s",
    "question_p50_ms": "ms",
    "question_p95_ms": "ms",
    "questions_per_session": "questions",
    "cpu_ms_per_question": "ms",
    "peak_rss_mb": "MB",
}

#: Tolerance on ``self_time``: self times plus the wrappers' bookkeeping
#: must add up to the measured phase's wall time within this share (what
#: is left is the cost of appending each span to its log).
SELF_TIME_TOLERANCE = 0.05


def run(workload: str, *extra: str, seed: int = 3) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "2", "--toy", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def load(name: str):
    """A benchmark module by file, without running it."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_workload_reports_all_end_to_end_metrics(workload):
    detail, result = run(workload)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, detail["errors"]
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == END_TO_END
    for name, metric in result["metrics"].items():
        assert set(metric) == {"value", "unit"}
        assert metric["value"] > 0, name
    declared = {m["name"]: m["unit"] for m in benchmark_json()["end_to_end"]}
    assert declared == END_TO_END
    assert detail["config"]["backend"] == "native"
    assert detail["config"]["tuning_source"] == "default"
    assert detail["samples"]["question_latency"] > 0


def test_same_seed_same_transcript():
    first, _ = run("edge-churn", seed=5)
    second, _ = run("edge-churn", seed=5)
    other, _ = run("edge-churn", seed=6)
    assert first["digest"] == second["digest"]
    assert first["digest"] != other["digest"]


@pytest.mark.parametrize("workload", ("klp-webtable", "serve-stacked", "edge-churn"))
def test_wrong_user_fails_the_correctness_check(workload):
    detail, result = run(workload, "--wrong-user")
    assert result["correct"] is False
    assert any("not at its target" in e for e in detail["errors"])


def test_traced_run_reports_every_per_layer_metric():
    detail, result = run("edge-cluster", "--trace", "1")
    assert result["correct"] is True, detail["errors"]
    declared = {m["name"]: m["unit"] for m in benchmark_json()["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    # Every layer but lookahead runs on edge-cluster.
    assert all(name.startswith("lookahead.") for name in detail["not_exercised"])
    assert metrics["cluster.worker_restarts"] == 0
    assert metrics["http.non_2xx"] == 0
    assert metrics["scheduler.flushes"] > 0
    assert metrics["cluster.call_p50_ms"] > 0
    assert 0 < metrics["trace.overhead_ratio"] <= 1.5
    assert detail["samples"]["async_service.ask"] > 0


def test_traced_self_times_sum_to_wall_time():
    detail, result = run("klp-webtable", "--trace", "1")
    assert result["correct"] is True, detail["errors"]
    check = detail["self_time"]
    root = check["root_s"]
    total = check["self_sum_s"] + check["bookkeeping_s"]
    assert abs(total - root) <= SELF_TIME_TOLERANCE * root, check
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["lookahead.select_calls"] > 0
    assert 0 < metrics["lookahead.root_pruned_ratio"] <= 1


def test_run_without_the_program_fails_without_a_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "klp-webtable",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.mark.parametrize(
    "edited", ("setup.py", "pyproject.toml", "src/repro/core/kernels/_native/_nativeext.c",
               "src/repro/core/lookahead.py"),
)
def test_build_key_covers_build_inputs(tmp_path, edited):
    """A change to build flags, C or Python sources builds a new program tree."""
    source_key = load("run").source_key
    for name in ("setup.py", "pyproject.toml"):
        shutil.copy2(ROOT / name, tmp_path / name)
    shutil.copytree(
        ROOT / "src" / "repro", tmp_path / "src" / "repro",
        ignore=shutil.ignore_patterns("__pycache__", "*.so"),
    )
    before = source_key(tmp_path)
    assert source_key(tmp_path) == before
    with open(tmp_path / edited, "a") as f:
        f.write("\n# edited\n")
    assert source_key(tmp_path) != before


def test_cluster_session_ids_are_seeded_and_dealt_round_robin():
    from repro.serve.cluster import worker_index_for

    session_ids = load("serve_child").SessionIds

    def draw(seed: int) -> list[str]:
        ids = session_ids(seed, 2)
        return [ids.token_hex(8) for _ in range(12)]

    drawn = draw(7)
    assert draw(7) == drawn
    assert draw(8) != drawn
    assert len(set(drawn)) == len(drawn)
    assert [worker_index_for(sid, 2) for sid in drawn] == [0, 1] * 6
