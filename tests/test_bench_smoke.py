"""Each benchmark workload runs briefly and checks out against the library.

The benchmark drives the library through its public names and config
fields; a library change that breaks one of them shows here, not only
when the benchmark is next run. One traced run checks which per-layer
metrics read "not observed", so a library name that the tracer wraps
cannot vanish silently.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]

# per-layer metrics whose wrap targets no longer exist in the library; a
# refactor that drops another wrapped name adds to this set
NOT_OBSERVED = {
    "blockpart.search_calls",
    "blockpart.search_s",
    "blockpart.candidates",
    "blockpart.hits",
    "blockpart.hit_ratio",
    "blockpart.searches_per_point",
    "kernels.sparse_calls",
    "kernels.sparse_s",
}


def run_bench(workload, seconds, trace):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1", "--seconds", seconds, "--trace", trace],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is True and result["failed"] == 0, result
    return lines


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_runs_clean(workload):
    run_bench(workload, "0.5", "0")


def test_trace_observes_every_live_layer():
    lines = run_bench("query", "0.5", "1")
    unobserved = {line.split()[0] for line in lines if line.endswith("not observed")}
    assert unobserved == NOT_OBSERVED
