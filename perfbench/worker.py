"""One workload in one single-threaded process (started by run.py).

Modes:
  setup    import, build the seeded job list, warm up, report set-up time
  measure  set up, then time interleaved rounds of the job list
  trace    set up, then passes over the job list: warm-up, with spans,
           untraced, under the profiler; report per-layer figures
  quick    set up, then run and check the first jobs of every kind once

The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import resource
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import core  # noqa: E402

WORKLOADS = ("proof", "protocol", "mtlc", "cli")


def build_jobs(workload: str, seed: int, scratch: Path):
    if workload == "proof":
        import wl_proof
        return wl_proof.build(seed)
    if workload == "protocol":
        import wl_protocol
        return wl_protocol.build(seed)
    if workload == "mtlc":
        import wl_mtlc
        return wl_mtlc.build(seed)
    import wl_cli
    scratch.mkdir(parents=True, exist_ok=True)
    return wl_cli.build(seed, wl_cli.Files(scratch))


def first_of_each_kind(jobs, k: int = 1):
    seen: dict[str, int] = {}
    out = []
    for j in jobs:
        if seen.get(j.kind, 0) < k:
            seen[j.kind] = seen.get(j.kind, 0) + 1
            out.append(j)
    return out


def run_pass(jobs, outcome, tracer=None, profile=None) -> None:
    """Run and check every job once, each from a collected heap."""
    for job in jobs:
        if tracer is not None:
            tracer.job = job.id
            tracer.job_kind = "long" if job.kind == "long" else "short"
        gc.collect()
        core.run_checked(job, outcome, profile)


def timed_pass(jobs, outcome, tracer=None) -> float:
    """One pass; its wall time scaled by the speed sampled during it."""
    with core.Sampler() as sampler:
        t0 = time.perf_counter()
        run_pass(jobs, outcome, tracer)
        t1 = time.perf_counter()
    return (t1 - t0) * sampler.factor(t0, t1)


def trace(jobs, spans_path: Path) -> tuple[dict, core.Outcome]:
    """A warm-up pass (first calls fill the program's caches), a pass with
    spans, an untraced pass, then one pass under the profiler (without the
    sampler, whose ticks would add to the call counts)."""
    import tracing

    outcome = core.Outcome()
    run_pass(jobs, outcome)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = timed_pass(jobs, outcome, tracer=tracer)
    finally:
        tracer.uninstall()
    plain = timed_pass(jobs, outcome)
    profile = cProfile.Profile()
    run_pass(jobs, outcome, profile=profile)
    metrics = tracing.layer_metrics(tracer)
    metrics.update(tracing.module_metrics(profile))
    metrics["trace.overhead"] = traced / plain
    spans_path.write_text(json.dumps(tracer.spans))
    return metrics, outcome


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "trace", "quick"), required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()

    scratch = args.out / f"files-{args.workload}-{args.mode}-{args.seed}"
    try:
        # set-up runs from the parent's clock reading at spawn (args.t0) to
        # here, and is scaled by the speed sampled while this process set up
        with core.Sampler() as sampler:
            start = time.perf_counter()
            jobs = build_jobs(args.workload, args.seed, scratch)
            warm = core.Outcome()
            for job in first_of_each_kind(jobs):
                core.run_checked(job, warm)
            end = time.perf_counter()
            time.sleep(core.SAMPLE_EVERY_S * core.MIN_SAMPLES)
        setup_raw = end - args.t0
        result = {"jobs": len(jobs), "setup_raw_s": setup_raw,
                  "setup_s": setup_raw * sampler.factor(start, end)}
        if args.mode == "quick":
            outcome = core.Outcome()
            for job in first_of_each_kind(jobs, 2):
                core.run_checked(job, outcome)
        elif args.mode == "measure":
            raw, scaled, outcome, rounds = core.measure(jobs, args.seconds)
            result.update(rounds=rounds, scaled=core.summarise(scaled),
                          raw=core.summarise(raw))
        elif args.mode == "trace":
            metrics, outcome = trace(
                jobs, args.out / f"spans-{args.workload}-seed{args.seed}.json")
            result["metrics"] = metrics
        else:
            outcome = warm
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    result.update(attempted=outcome.attempted, failed=outcome.failed,
                  wrong=outcome.wrong, errors=outcome.errors,
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
