"""Smoke test of the benchmark harness: both verdict workloads at toy
size, traced.  Fails if a report misses its gate, if a traced function
was renamed under the harness, if the block scan stops rejecting
subgroups before materializing them, or if it checks a checked unit
translation densely (one dense partition check per candidate, for
sigma)."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


@pytest.mark.parametrize("workload", ["verdict-alt", "verdict-blocks"])
def test_traced_quick_run(workload):
    with subprocess.Popen(
            [sys.executable, str(RUN), "--workload", workload, "--quick",
             "--seconds", "1", "--trace", "1"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True) as proc:
        out, err = proc.communicate(timeout=300)
    for record in RUN.parent.glob(f"out/*-{proc.pid}.*"):
        record.unlink()  # the run's record and spans file
    assert proc.returncode == 0, out + err
    result = json.loads(out.splitlines()[-1])
    assert result["correct"] is True
    metric = {k: v["value"] for k, v in result["metrics"].items()}
    tested = metric["verify.block_scan.subgroups_tested"]
    assert tested > 0
    assert metric["goursat.member_pairs.calls"] < tested / 10
    assert metric["verify.partition_invariant.calls"] == \
        metric["verify.block_scan.candidates"]
