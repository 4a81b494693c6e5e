"""Smoke test of the benchmark at tiny sizes.

Every metric BENCHMARK.json declares must be emitted with its unit, the
per-phase timings and the error rate must be printed by name, and a
corrupted input must be counted as a failed operation.
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

run.import_cibpath()

import bench_workloads as bw  # noqa: E402

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCHMARK = json.load(fh)

PHASES = {
    "mini-pipeline": ("pipeline_s", "pipeline_2w_s"),
    "rescreen-10k": ("rescreen_s",),
    "attractors-wide": ("enumerate_s", "attractor_scan_s"),
}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(bw.WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(workload, trace, tmp_path):
    result, report, details, _ = run.run_benchmark(
        workload, 5, 0, bool(trace), sizes=bw.TINY, workroot=str(tmp_path)
    )
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1 + trace
    for phase in PHASES[workload]:
        assert any(line.startswith(f"e2e {phase} median=") and line.endswith(" unit=s") for line in report)
    assert any(line.startswith("e2e error_rate value=0.0000 ") for line in report)
    assert details["summary"]["error_rate"] == {"value": 0.0, "unit": "ratio"}
    json.loads(json.dumps(result))


@pytest.mark.parametrize("cut", ["at_a_line_end", "inside_a_line"])
def test_truncated_ensemble_counts_as_failed_operation(cut, tmp_path):
    workload = bw.Rescreen(5, bw.TINY)
    workload.setup(str(tmp_path))
    with open(workload.ensemble_path, encoding="utf-8") as fh:
        lines = fh.readlines()
    kept = lines[: len(lines) // 2]
    if cut == "inside_a_line":
        kept.append(lines[len(lines) // 2][:20])
    with open(workload.ensemble_path, "w", encoding="utf-8") as fh:
        fh.writelines(kept)
    measured = run.measure(workload, 0)
    assert measured["attempted"] == 1
    assert len(measured["failures"]) / measured["attempted"] == 1.0
