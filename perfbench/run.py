"""Benchmark entry point for hinfgp.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a checkout; the program is imported from ``src/``.
Each run spawns ``SETUP_RUNS`` fresh worker interpreters one after another.
All of them set up the workload (import, seeded inputs, one warm-up
experiment) and report how long that took from their spawn; the last one then
runs the timed phase.  ``setup_s`` is the median of those set-ups.

Every metric is printed by name and unit, then the last line of stdout is
the JSON result: end-to-end metrics with ``--trace 0``, per-layer metrics
with ``--trace 1``.  ``--workload all`` prints the end-to-end table of every
workload and no JSON line.  Scratch files go to ``.bench_work/``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("identify-tune", "identify-wide", "verify-deep", "cli-cold")
SETUP_RUNS = 3
DEADLINE_S = 170.0



class BenchmarkError(RuntimeError):
    pass


def spawn_worker(args, setup_only: bool, deadline: float) -> dict:
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if setup_only:
        command.append("--setup-only")
    started = time.monotonic()
    proc = subprocess.Popen(
        [*command, "--started", repr(started)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"{args.workload} worker ran past the {DEADLINE_S:.0f} s deadline")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)  # the worker and any CLI child it started
            proc.communicate()
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(f"{args.workload} worker exited with status {proc.returncode}")
    return json.loads(lines[-1])


def units(section: str) -> dict[str, str]:
    """Metric name -> unit, as declared in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"]: metric["unit"] for metric in spec[section]}


def run_workload(args) -> tuple[dict, dict]:
    """Returns (the JSON result, extra figures for the printed table)."""
    deadline = time.monotonic() + DEADLINE_S
    setups = [spawn_worker(args, True, deadline)["setup_s"] for _ in range(SETUP_RUNS - 1)]
    timed = spawn_worker(args, False, deadline)
    setups.append(timed["setup_s"])

    extra = dict(timed["quality"])
    extra["failed_ratio"] = (timed["failed"] / timed["attempted"], "ratio")
    if args.trace:
        values = timed["layers"]
        declared = units("per_layer")
    else:
        latencies = timed["latencies"]
        values = {
            "setup_s": statistics.median(setups),
            "experiments_per_s": len(latencies) / timed["wall_s"],
            "latency_p50_s": statistics.median(latencies),
            "peak_rss_mb": timed["peak_rss_mb"],
        }
        declared = units("end_to_end")
        extra["latency_samples"] = (len(latencies), "count")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in declared.items()}
    result = {
        "correct": timed["failed"] == 0,
        "attempted": timed["attempted"],
        "failed": timed["failed"],
        "metrics": metrics,
    }
    for failure in timed["failures"]:
        print(f"FAILED {args.workload}: {failure}", file=sys.stderr)
    if args.trace:
        extra["shares"] = timed["shares"]
    return result, extra


def print_table(workload: str, result: dict, extra: dict) -> None:
    print(f"== {workload}: {result['attempted']} experiments, {result['failed']} failed")
    rows = [(n, m["value"], m["unit"]) for n, m in result["metrics"].items()]
    rows += [(n, v[0], v[1]) for n, v in extra.items() if n != "shares"]
    for name, value, unit in rows:
        print(f"  {name:<28} {value:>16.6g} {unit}")
    if "shares" in extra:
        print("  self-time share (inclusive share) of traced experiment wall time:")
        ranked = sorted(extra["shares"].items(), key=lambda item: -item[1][0])
        for name, (own, inclusive) in ranked:
            print(f"    {name:<26} {own:7.1%} ({inclusive:6.1%})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="hinfgp benchmark")
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so that spawn_worker's cleanup runs.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if not (ROOT / "src" / "hinfgp" / "cli.py").is_file():
        print(f"error: {ROOT} holds no hinfgp sources (src/hinfgp)", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        for name in names:
            args.workload = name
            result, extra = run_workload(args)
            print_table(name, result, extra)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
