"""Smoke test of the benchmark: every workload at its smallest size, with
all output checks on and no timing gate.

    python3 -m pytest bench/test_smoke.py -q
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke(workload, trace):
    result = run(workload, trace)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > 0
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in wanted)
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
