"""Smoke test of the benchmark harness: both verdict workloads and
`types-wide` at toy size, traced.  Fails if a report misses its gate,
if a traced function was renamed under the harness, if the block scan
stops rejecting subgroups before materializing them, if it certifies
a candidate other than once (one partition check per candidate, for
sigma, from the S table), or if `types` maps its images other than
the 2 * 7 times the harness's own tests pin."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


def traced_quick_run(workload):
    """The metric values of a one-second traced quick run of workload,
    after checking that every report met its gate."""
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
    return {k: v["value"] for k, v in result["metrics"].items()}


@pytest.mark.parametrize("workload", ["verdict-alt", "verdict-blocks"])
def test_traced_quick_run(workload):
    metric = traced_quick_run(workload)
    tested = metric["verify.block_scan.subgroups_tested"]
    assert tested > 0
    assert metric["goursat.member_pairs.calls"] < tested / 10
    assert metric["verify.partition_invariant.calls"] == \
        metric["verify.block_scan.candidates"]


def test_traced_quick_types_run():
    # the harness pins two mappings of each of the 7 images at n=8
    metric = traced_quick_run("types-wide")
    assert metric["boxtypes.s_image.calls"] == 14
