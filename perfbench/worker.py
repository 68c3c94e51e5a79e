"""One fresh benchmark interpreter: set up a workload, then optionally time it.

Set-up is everything between the interpreter's start and the first timed
experiment: importing the program, generating the seeded inputs and one
untimed warm-up experiment.  The warm-up is experiment 0, and the timed phase
starts with experiment 0 again, so every run doubles as a determinism probe:
the SHA-256 of every file in the two out_dirs must match.

The timed phase runs whole cycles of the workload's inputs until ``seconds``
have passed; output checks and trace analysis run after the clock stops.
With ``--trace 1`` the phase is split: the first half runs untraced, the
second half with the layer wrappers installed.

The last line of stdout is one JSON object for ``run.py``.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parents[1]
POOL = 256  # distinct inputs per run; a run wraps around only if it outlasts them


@dataclass
class Outcome:
    index: int
    config: dict
    out: Path
    latency: float
    spans_file: Path | None
    error: str | None


def timed_phase(workload, configs, first: int, seconds: float, work: Path, tracer=None):
    """Run whole cycles from experiment ``first`` until ``seconds`` pass.

    With a tracer, in-process experiments record into it and CLI children
    write their spans to a file beside (never inside) their out_dir.
    """
    outcomes = []
    index = first
    start = time.monotonic()
    while True:
        for _ in range(workload.cycle):
            config = configs[index % len(configs)]
            out = work / f"exp{index}"
            spans_file = None
            if tracer is not None:
                tracer.experiment = index
                spans_file = work / f"spans{index}.jsonl"
            began = time.perf_counter()
            try:
                workload.run(config, out, spans_file)
                error = None
            except Exception as exc:  # a failed experiment is counted, not fatal
                error = f"{type(exc).__name__}: {exc}"
            outcomes.append(Outcome(index, config, out, time.perf_counter() - began, spans_file, error))
            index += 1
        if time.monotonic() - start >= seconds:
            return outcomes, time.monotonic() - start


def check_outcomes(outcomes, warm_dir: Path, quality: workloads.Quality) -> list[str]:
    """Output checks plus the determinism probe; one entry per failed experiment."""
    failures = []
    for o in outcomes:
        if o.error is not None:
            problems = [o.error]
        else:
            problems = workloads.check(o.config, o.out, quality)
            if o.index == 0 and workloads.digest_dir(o.out) != workloads.digest_dir(warm_dir):
                problems.append("out_dir differs from the warm-up run of the same config")
        if problems:
            failures.append(f"experiment {o.index}: {'; '.join(problems)}")
    return failures


def traced_run(workload, configs, seconds: float, work: Path, scratch: Path, name: str):
    """Untraced half, then traced half; returns (outcomes, per-layer metrics, shares)."""
    plain, plain_wall = timed_phase(workload, configs, 0, seconds / 2, work)
    tracer = tracing.Tracer()
    in_process = isinstance(workload, workloads.InProcess)
    if in_process:
        tracer.install()
    try:
        traced, traced_wall = timed_phase(workload, configs, plain[-1].index + 1, seconds / 2, work, tracer)
    finally:
        tracer.uninstall()
    if in_process:
        spans = tracer.spans
    else:
        spans = []
        for o in traced:
            if o.spans_file.is_file():
                spans.extend(tracing.load_spans(o.spans_file, len(spans), o.index))
    tracing.dump(spans, scratch / f"spans-{name}.jsonl")

    finished = [o for o in traced if o.error is None]
    artifact_bytes = statistics.fmean(workloads.dir_bytes(o.out) for o in finished) if finished else 0.0
    layers = tracing.layer_metrics(spans, len(traced), artifact_bytes)
    layers.update(tracing.import_metrics(ROOT, workloads.program_env(ROOT)))
    layers["trace.overhead_ratio"] = (len(plain) / plain_wall) / (len(traced) / traced_wall)
    shares = tracing.shares(spans, sum(o.latency for o in traced))
    return plain + traced, layers, shares


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--started", type=float, required=True, help="time.monotonic() when this process was spawned")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "hinfgp" / "cli.py").is_file():
        print(f"error: no hinfgp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        workload = workloads.WORKLOADS[args.workload](ROOT, args.seed)
        configs = workload.inputs(POOL)
        warm_dir = work / "warmup"
        workload.run(configs[0], warm_dir)
        result: dict = {"setup_s": time.monotonic() - args.started}
        if args.setup_only:
            print(json.dumps(result))
            return 0

        if args.trace:
            outcomes, result["layers"], result["shares"] = traced_run(
                workload, configs, args.seconds, work, scratch, args.workload
            )
        else:
            outcomes, result["wall_s"] = timed_phase(workload, configs, 0, args.seconds, work)
            result["latencies"] = [o.latency for o in outcomes]
            # On cli-cold the program runs in child processes.
            who = resource.RUSAGE_SELF if isinstance(workload, workloads.InProcess) else resource.RUSAGE_CHILDREN
            result["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0
        quality = workloads.Quality()
        failures = check_outcomes(outcomes, warm_dir, quality)
        result.update(attempted=len(outcomes), failed=len(failures), failures=failures[:10], quality=quality.metrics())
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
