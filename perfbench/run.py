"""Benchmark of the roundgroup CLI, end to end and per layer.

    python3 perfbench/run.py --workload verdict-alt --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --quick            # every workload at toy size

The run builds the workload's spec files from --seed, then calls
`roundgroup.cli.main` in this process, one invocation after another
(closed loop, one client), until --seconds have passed and the current
round is complete.  Every report is then checked against the
workload's gate.  With --trace 0 the last line of stdout is a JSON
object with the end-to-end metrics; with --trace 1 the same items run
once untraced and once with every layer wrapped, and the JSON object
holds the per-layer metrics.  Timings are reported in reference
seconds, which divide out the machine's speed (calibrate.py); the
wall-clock figures are printed next to them.  The run pins itself to
one core.  A record of the run (machine, versions, samples, metrics) is
written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(SRC))

try:
    import numpy as np
    import roundgroup
    from roundgroup import cli
except ModuleNotFoundError as exc:
    sys.exit(f"error: cannot import roundgroup from {SRC}: {exc}")
if not Path(roundgroup.__file__).resolve().is_relative_to(SRC):
    sys.exit(f"error: roundgroup imported from {roundgroup.__file__}, "
             f"not from {SRC}")

import calibrate  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

END_TO_END = [
    ("setup_s", "s"),
    ("items_per_s", "1/s"),
    ("item_s_p50", "s"),
    ("cpu_s_per_item", "s"),
    ("peak_rss_mb", "MB"),
]
SETUP_SAMPLES = 5
MAX_REL_GAP = 1e-6


def build(name: str, seed: int, quick: bool, workdir: Path):
    workdir.mkdir(parents=True)
    return workloads.BY_NAME[name](seed, workdir, quick)


def setup_seconds(name: str, seed: int, quick: bool,
                  samples: int) -> list[dict]:
    """Wall time of fresh processes from spawn, through the imports and
    the workload's spec files, to the point where the first timed call
    would start."""
    out = []
    for _ in range(samples):
        argv = [sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(seed), "--setup-only"]
        if quick:
            argv.append("--quick")
        t0 = time.monotonic()
        with subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True) as child:
            line = child.stdout.readline()
            t1 = time.monotonic()
            child.stdout.read()
            if child.wait(timeout=120) != 0 or line != "ready\n":
                raise RuntimeError(f"setup child failed: {line!r}")
        out.append({"start": t0, "wall_s": t1 - t0})
    return out


def call_cli(argv: list[str]) -> tuple[int, str, str | None]:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = cli.main(argv)
            error = None
        except Exception:  # one broken item must not end the run
            rc, error = -1, traceback.format_exc()
    return rc, stdout.getvalue(), error


def cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def timed_loop(wl, seconds: float, count: int | None = None,
               tracer: tracing.Tracer | None = None) -> dict:
    """Run items in order, cycling the list, until `seconds` have passed
    at a round boundary (or exactly `count` items when given)."""
    samples = []
    start = time.monotonic()
    i = 0
    while True:
        item = wl.items[i % len(wl.items)]
        c0 = cpu_seconds()
        t0 = time.monotonic()
        if tracer is None:
            rc, stdout, error = call_cli(item.argv)
        else:
            rc, stdout, error = tracer.call_item(i, call_cli, item.argv)
        t1 = time.monotonic()
        samples.append({"item": item, "start": t0, "wall_s": t1 - t0,
                        "cpu_s": cpu_seconds() - c0, "rc": rc,
                        "stdout": stdout, "error": error})
        i += 1
        if count is not None:
            if i == count:
                break
        elif i % wl.round_size == 0 and t1 - start >= seconds:
            break
    return {"samples": samples}


def add_speeds(samples: list[dict], speeds: calibrate.Speeds) -> None:
    for s in samples:
        s["speed"] = speeds.speed(s["start"], s["start"] + s["wall_s"])


def timings(phase: dict) -> dict:
    """Per-item timings summed or taken the median of, in wall seconds
    and in reference seconds."""
    samples = phase["samples"]
    n = len(samples)
    wall = [s["wall_s"] for s in samples]
    ref = [s["wall_s"] * s["speed"] for s in samples]
    return {
        "items_per_s": n / sum(ref),
        "item_s_p50": statistics.median(ref),
        "cpu_s_per_item": sum(s["cpu_s"] * s["speed"] for s in samples) / n,
        "wall.items_per_s": n / sum(wall),
        "wall.item_s_p50": statistics.median(wall),
        "wall.cpu_s_per_item": sum(s["cpu_s"] for s in samples) / n,
        "speed_p50": statistics.median(s["speed"] for s in samples),
    }


def check(wl, phase: dict) -> int:
    """Gate every sample, outside the timed region; returns failures."""
    failed = 0
    for s in phase["samples"]:
        item = s.pop("item")
        problems = ([s["error"]] if s["error"] else
                    workloads.gate(wl.name, item, s["rc"], s["stdout"]))
        s.update(label=item.label, problems=problems)
        del s["stdout"]
        failed += bool(problems)
    return failed


def tail_percentile(walls: list[float]) -> tuple[str, float]:
    """The highest of p90/p99/p99.9 with at least ten samples beyond it,
    or the maximum when there are too few samples for any."""
    ordered = sorted(walls)
    for label, p in (("p99.9", 0.999), ("p99", 0.99), ("p90", 0.9)):
        if len(ordered) * (1 - p) >= 10:
            return label, ordered[min(len(ordered) - 1,
                                      int(p * len(ordered)))]
    return "max", ordered[-1]


def machine_facts() -> dict:
    def run(*argv):
        try:
            return subprocess.run(argv, cwd=ROOT, capture_output=True,
                                  text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            return None

    model = None
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        model = next((line.split(":", 1)[1].strip() for line in fh
                      if line.startswith("model name")), None)
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((SRC / "roundgroup").glob("*.py")))
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "l3_cache": run("getconf", "LEVEL3_CACHE_SIZE"),
            "python": platform.python_version(), "numpy": np.__version__,
            "git_commit": (run("git", "rev-parse", "HEAD")
                           if (ROOT / ".git").exists() else None),
            "src_lines": src_lines}


def run_workload(name: str, args) -> tuple[dict, dict]:
    """One run of one workload; returns (result line, full record)."""
    setup_count = 1 if args.quick else SETUP_SAMPLES
    workdir = OUT / f"work-{os.getpid()}-{name}"
    calibrator = calibrate.Calibrator()
    try:
        setup = setup_seconds(name, args.seed, args.quick, setup_count)
        wl = build(name, args.seed, args.quick, workdir)
        load_before = os.getloadavg()
        untraced = timed_loop(wl, args.seconds if not args.trace
                              else args.seconds / 2)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        traced = tracer = None
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = timed_loop(wl, 0, len(untraced["samples"]), tracer)
            finally:
                tracer.uninstall()
        load_after = os.getloadavg()
    finally:
        speeds = calibrator.close()
        shutil.rmtree(workdir, ignore_errors=True)

    phases = [untraced] + ([traced] if traced else [])
    for samples in [setup] + [p["samples"] for p in phases]:
        add_speeds(samples, speeds)
    failed = sum(check(wl, p) for p in phases)
    attempted = sum(len(p["samples"]) for p in phases)
    items = len(untraced["samples"])
    tail_label, tail_value = tail_percentile(
        [s["wall_s"] for s in untraced["samples"]])
    end_to_end = timings(untraced)
    end_to_end.update({
        "setup_s": statistics.median(s["wall_s"] * s["speed"]
                                     for s in setup),
        "wall.setup_s": statistics.median(s["wall_s"] for s in setup),
        "peak_rss_mb": rss_mb,
    })
    correct = failed == 0
    if args.trace:
        gap = tracer.self_sum_gap()
        correct = correct and gap <= MAX_REL_GAP
        layers = tracer.layer_metrics(items)
        traced_ips = timings(traced)["items_per_s"]
        layers.update({
            "trace.items": items,
            "trace.untraced_items_per_s": end_to_end["items_per_s"],
            "trace.traced_items_per_s": traced_ips,
            "trace.overhead_ratio":
                end_to_end["items_per_s"] / traced_ips - 1,
            "trace.self_sum_rel_gap": gap,
        })
        metrics = {name_: {"value": layers.get(name_, 0.0), "unit": unit}
                   for name_, unit, _ in tracing.PER_LAYER}
    else:
        metrics = {name_: {"value": end_to_end[name_], "unit": unit}
                   for name_, unit in END_TO_END}

    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = {
        "workload": name, "n": wl.n, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "quick": args.quick,
        "machine": machine_facts(),
        "load_avg_before": load_before, "load_avg_after": load_after,
        "setup_samples": setup,
        "kernel_samples": speeds.samples,
        "end_to_end": end_to_end,
        "failed_ratio": failed / attempted,
        "item_s_tail": {tail_label: tail_value},
        "result": result,
        "phases": phases,
    }
    stem = (f"{name}-seed{args.seed}-trace{args.trace}"
            f"{'-quick' if args.quick else ''}-{os.getpid()}")
    if args.trace:
        record["all_layer_metrics"] = layers
        record["spans_file"] = f"{stem}.spans.jsonl"
        tracer.write(OUT / record["spans_file"])
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1))
    return result, record


def report(name: str, result: dict, record: dict) -> None:
    """Human-readable lines; the JSON result line is printed last."""
    m = record["machine"]
    print(f"# {name}: n={record['n']} seed={record['seed']} "
          f"nproc={m['nproc']} load={record['load_avg_before'][0]:.2f}"
          f"->{record['load_avg_after'][0]:.2f} "
          f"commit={m['git_commit']} src_lines={m['src_lines']}")
    items = len(record["phases"][0]["samples"])
    (tail_label, tail_value), = record["item_s_tail"].items()
    print(f"# items={items} attempted={result['attempted']} "
          f"failed={result['failed']} "
          f"failed_ratio={record['failed_ratio']:.4f} "
          f"item_s_{tail_label}={tail_value:.6f}")
    for key, metric in result["metrics"].items():
        print(f"# {key} = {metric['value']:.6g} {metric['unit']}")
    e = record["end_to_end"]
    print(f"# wall clock: items_per_s = {e['wall.items_per_s']:.6g} 1/s, "
          f"item_s_p50 = {e['wall.item_s_p50']:.6g} s, "
          f"cpu_s_per_item = {e['wall.cpu_s_per_item']:.6g} s, "
          f"setup_s = {e['wall.setup_s']:.6g} s; "
          f"speed = {e['speed_p50']:.4g} reference s per wall s")
    for phase in record["phases"]:
        for s in phase["samples"]:
            for problem in s["problems"]:
                last = problem.strip().splitlines()[-1]
                print(f"# FAILED {s['label']}: {last}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.BY_NAME))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="toy sizes, one spec per workload; without "
                             "--workload, runs every workload")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload is None and not args.quick:
        parser.error("--workload is required without --quick")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_only:
        workdir = OUT / f"setup-{os.getpid()}"
        build(args.workload, args.seed, args.quick, workdir)
        print("ready", flush=True)
        shutil.rmtree(workdir, ignore_errors=True)
        return 0
    names = [args.workload] if args.workload else list(workloads.BY_NAME)
    OUT.mkdir(exist_ok=True)
    # one core for this process and its set-up children, so that the
    # reference kernel runs where the timed work runs
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    ok = True
    for name in names:
        result, record = run_workload(name, args)
        report(name, result, record)
        print(json.dumps(result), flush=True)
        ok = ok and result["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
