"""Tests of the benchmark itself, at toy size.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _results(capsys) -> list[dict]:
    lines = capsys.readouterr().out.splitlines()
    return [json.loads(line) for line in lines if line.startswith("{")]


@pytest.mark.parametrize("trace", [0, 1])
def test_quick_mode_prints_every_metric_with_its_unit(capsys, trace):
    rc = run.main(["--quick", "--seconds", "0", "--trace", str(trace)])
    results = _results(capsys)
    assert rc == 0
    assert len(results) == len(workloads.BY_NAME)
    expected = (run.END_TO_END if not trace else
                [(name, unit) for name, unit, _ in tracing.PER_LAYER])
    for result in results:
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] == 1 + trace
        assert [(k, v["unit"]) for k, v in result["metrics"].items()] \
            == expected


def test_traced_run_sees_each_workloads_layers(capsys):
    seen = {}
    for name in workloads.BY_NAME:
        run.main(["--quick", "--workload", name, "--seconds", "0",
                  "--trace", "1"])
        seen[name] = {k: v["value"]
                      for k, v in _results(capsys)[0]["metrics"].items()}
    assert seen["verdict-alt"]["groups.giant_witness.trials"] >= 1
    assert seen["verdict-alt"]["verify.block_scan.subgroups_tested"] == 81
    assert seen["verdict-blocks"]["verify.block_scan.certified"] == 3
    assert seen["verdict-blocks"]["groups.giant_witness.s"] == 0
    assert seen["order-256"]["groups.schreier_sims.strong_generators"] > 0
    # types computes each image twice: rows loop and violations pass
    assert seen["types-wide"]["boxtypes.s_image.calls"] == 2 * 7
    for values in seen.values():
        assert values["trace.self_sum_rel_gap"] <= run.MAX_REL_GAP
        assert values["cli.main.s"] > values["cli.main.self_s"] > 0


def _report(name: str, tmp: Path):
    """The one quick item of a workload and its real report."""
    wl = run.build(name, 0, True, tmp / name)
    item = wl.items[0]
    rc, stdout, error = run.call_cli(item.argv)
    assert error is None
    assert workloads.gate(name, item, rc, stdout) == []
    return item, rc, json.loads(stdout)


TAMPERS = [
    ("verdict-alt", lambda r: r["verdict"].update(conclusion="Inconclusive")),
    ("verdict-alt", lambda r: r["verdict"]["block_scan"].update(
        subgroups_tested=80)),
    ("verdict-alt", lambda r: r["verdict"]["witness"].update(word_hex="0")),
    ("verdict-alt", lambda r: r["verdict"]["witness"].update(prime=251)),
    ("verdict-blocks", lambda r: r["verdict"]["block_scan"]["candidates"]
     .pop()),
    ("verdict-blocks", lambda r: r["verdict"].update(conclusion="AltCertified")),
    ("order-256", lambda r: r["order"].update(order="1")),
    ("order-256", lambda r: r["order"].update(certificate="unverified")),
    ("order-256", lambda r: r["spec"].update(sha256="0" * 64)),
    ("types-wide", lambda r: r["types"].update(type_violations=[2])),
    ("types-wide", lambda r: r["types"].update(coset_violations=[4])),
    ("types-wide", lambda r: r["types"]["rows"].pop()),
]


@pytest.mark.parametrize("name,tamper", TAMPERS)
def test_every_gate_fires(name, tamper):
    tmp = run.OUT / "test-gates"
    shutil.rmtree(tmp, ignore_errors=True)
    try:
        item, rc, report = _report(name, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    tamper(report)
    assert workloads.gate(name, item, rc, json.dumps(report))
    assert workloads.gate(name, item, rc + 1, json.dumps(report))
    assert workloads.gate(name, item, rc, "no report")


def test_wrong_expected_value_fails_the_run(capsys, monkeypatch):
    pins = json.loads(json.dumps(workloads.PINNED_ORDERS))
    pins["identity_r0_n4"]["order"] = "1"
    monkeypatch.setattr(workloads, "PINNED_ORDERS", pins)
    monkeypatch.setitem(workloads.SUBGROUPS_TESTED, 4, 80)
    for name in ("order-256", "verdict-alt"):
        rc = run.main(["--quick", "--workload", name, "--seconds", "0"])
        out = capsys.readouterr().out
        result = json.loads(out.splitlines()[-1])
        assert rc == 1
        assert not result["correct"] and result["failed"] == 1
        assert "# FAILED" in out


def test_tracer_self_times_sum_to_item_wall_time():
    tracer = tracing.Tracer()
    spans = tracer.spans
    # item [0, 10] > a [1, 6] > b [2, 3]; item > c [7, 9]
    spans += [[tracing.ITEM, 0.0, 10.0, -1, 0], ["a", 1.0, 6.0, 0, 0],
              ["b", 2.0, 3.0, 1, 0], ["c", 7.0, 9.0, 0, 0]]
    assert tracer.self_times() == [3.0, 4.0, 1.0, 2.0]
    assert tracer.self_sum_gap() == 0.0
    metrics = tracer.layer_metrics(1)
    assert metrics["a.s"] == 5.0 and metrics["a.self_s"] == 4.0
    spans[1][3] = -1  # a span that lost its parent breaks the sum
    assert tracer.self_sum_gap() == pytest.approx(0.5)


def test_tracer_restores_every_function():
    before = [getattr(owner, attr) for owner, attr, _, _ in tracing.HOOKS]
    tracer = tracing.Tracer()
    tracer.install()
    assert all(getattr(owner, attr) is not orig for (owner, attr, _, _), orig
               in zip(tracing.HOOKS, before))
    tracer.uninstall()
    assert [getattr(owner, attr)
            for owner, attr, _, _ in tracing.HOOKS] == before


def test_fails_without_the_sources():
    bare = run.OUT / "test-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "verdict-alt",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "roundgroup" in proc.stderr


def test_speed_comes_from_the_kernel_samples_around_an_interval():
    ref = calibrate.REFERENCE_KERNEL_S
    speeds = calibrate.Speeds([(0.0, ref), (1.0, 2 * ref), (2.0, ref)])
    assert speeds.speed(0.5, 1.5) == pytest.approx(0.5)
    assert speeds.speed(0.2, 0.3) == pytest.approx(2 / 3)
    assert speeds.speed(0.0, 2.0) == pytest.approx(0.75)
    assert speeds.speed(5.0, 6.0) == pytest.approx(1.0)
