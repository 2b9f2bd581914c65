"""Self-tests of the benchmark; not part of the package's test suite.

    python3 -m pytest perfbench -q      (about five minutes, mostly verify_all)

Two traced runs of one seed must report identical exact counts, and
BENCHMARK.json must list every per-layer metric the tracer reports.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from spans import EXACT, METRICS

ROOT = Path(__file__).resolve().parent.parent
SEED = 7  # not the default seed, so its verdicts are checked too


def traced_run(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", ["sphere_nodes", "dsl_config",
                                      "verify_all"])
def test_exact_counts_repeat(workload):
    first, second = traced_run(workload), traced_run(workload)
    assert first["correct"] and second["correct"]
    assert first["failed"] == second["failed"] == 0
    for name in EXACT:
        assert first["metrics"][name] == second["metrics"][name], name


def test_benchmark_json_lists_every_layer_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert listed == METRICS
