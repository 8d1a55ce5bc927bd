"""Every committed BENCH_*.json names only the workloads and end-to-end
metrics that BENCHMARK.json declares, holds ten runs a side for each
workload, and claims a gain only on a workload and metric it holds."""
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


def test_a_bench_file_is_committed():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=[p.name for p in BENCH_FILES])
def test_bench_file_names_declared_workloads_and_metrics(path):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = {w["name"] for w in declared["workloads"]}
    metrics = {m["name"] for m in declared["end_to_end"]}
    bench = json.loads(path.read_text())
    assert bench["workloads"] and set(bench["workloads"]) <= workloads
    for name, runs in bench["workloads"].items():
        for side in ("parent", "change"):
            medians = runs[side]["median"]
            assert medians and set(medians) <= metrics, (name, side)
            assert all(isinstance(v, (int, float)) for v in medians.values())
            assert len(runs[side]["runs"]) == 10, (name, side)
    if bench.get("claim"):  # a file that claims no gain holds null
        workload, metric = bench["claim"]["workload"], bench["claim"]["metric"]
        assert workload in workloads and metric in metrics
        for side in ("parent", "change"):
            assert metric in bench["workloads"][workload][side]["median"], side
