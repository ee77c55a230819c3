"""Self-test of the benchmark at toy sizes (``--size tiny``).

Runs run.py as the benchmark command is run, and checks that it emits every
metric BENCHMARK.json names with its unit, that per-layer counts repeat
exactly between two traced runs, and that the traced self times fit inside
the traced wall time.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in BENCH["end_to_end"] + BENCH["per_layer"]}


def bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return result["metrics"]


def check_units(metrics: dict, specs: list) -> None:
    assert sorted(metrics) == sorted(m["name"] for m in specs)
    for name, m in metrics.items():
        assert m["unit"] == UNITS[name]
        assert isinstance(m["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_emitted(workload):
    metrics = bench(workload, 0)
    check_units(metrics, BENCH["end_to_end"])
    assert all(m["value"] > 0 for m in metrics.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_runs_repeat_counts_and_fit_wall_time(workload):
    first, second = bench(workload, 1), bench(workload, 1)
    check_units(first, BENCH["per_layer"])
    counts = [n for n, m in first.items() if m["unit"] in ("count", "bytes")]
    assert {n: first[n]["value"] for n in counts} == {n: second[n]["value"] for n in counts}
    for metrics in (first, second):
        wall = metrics["trace.run_s"]["value"]
        self_s = sum(m["value"] for n, m in metrics.items() if n.endswith(".self_s"))
        checks = sum(m["value"] for n, m in metrics.items() if n.startswith("harness."))
        assert 0 < self_s <= wall and checks <= wall
    layer = {"durfee-ranked": ("poly.", "series."), "coeffs-deep": ("oracle.",)}
    for name in counts:
        if name.startswith(layer.get(workload, ("-",))):
            assert first[name]["value"] == 0, name
