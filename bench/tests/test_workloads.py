import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from bench import harness, run
from bench.workloads import KB, MB, WORKLOADS

ROOT = Path(__file__).resolve().parents[2]

#: The benchmark's code on tiny inputs: the whole module runs in seconds.
TINY = {
    "paper_broadcast": dict(
        num_jobs=2, num_gpus=16, message_bytes=1 * MB, hosts_per_tor=4
    ),
    "serve_fresh_groups": dict(
        num_jobs=6, num_gpus=4, spines=4, leaves=8, fail_fraction=0.1
    ),
    "serve_recurring_groups": dict(
        num_jobs=12, num_groups=3, num_gpus=4, spines=4, leaves=8,
        fail_fraction=0.1,
    ),
    "control_churn": dict(num_submits=16),
    "pod_sharded": dict(jobs_per_pod=2, message_bytes=256 * KB),
}


def units(metrics: dict) -> dict:
    return {name: m["unit"] for name, m in metrics.items()}


def declared(entries: list) -> dict:
    return {e["name"]: e["unit"] for e in entries}


def test_benchmark_json_declares_what_the_code_runs(benchmark_json):
    assert [w["name"] for w in benchmark_json["workloads"]] == list(WORKLOADS)
    assert list(WORKLOADS) == list(run.WORKLOAD_NAMES)
    assert {
        e["name"]: (e["unit"], e["better"], e["bound"])
        for e in benchmark_json["end_to_end"]
    } == harness.END_TO_END
    assert declared(benchmark_json["per_layer"]) == harness.per_layer_units()


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_workload_emits_every_declared_metric(name, benchmark_json):
    workload = WORKLOADS[name](**TINY[name])
    setups = [harness.setup_sample(workload, 1) for _ in range(2)]
    m = harness.measure(workload, seed=1, seconds=0, trace=True, min_passes=2)
    assert [str(f) for f in m.failures] == []
    assert all(p.failed == 0 and p.jobs == p.submitted for p in m.passes)

    e2e = {**harness.setup_metric(setups), **harness.run_metrics(m)}
    assert units(e2e) == declared(benchmark_json["end_to_end"])
    assert all(metric["value"] > 0 for metric in e2e.values())

    per_layer = harness.per_layer(m)
    assert units(per_layer) == declared(benchmark_json["per_layer"])
    assert per_layer["trace.coverage"]["value"] >= 0.99
    assert per_layer["sim.engine.events"]["value"] == m.passes[0].events > 0


def test_run_without_the_package_source_fails_without_a_result(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "last_run.json"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    cmd = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    out = subprocess.run(
        [sys.executable, *cmd[1:], "--workload", "paper_broadcast", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""
    assert "src/repro" in out.stderr or "package source" in out.stderr
