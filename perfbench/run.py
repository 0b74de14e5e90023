"""Benchmark of the multirole laboratory: four workloads, each run in its own
single-threaded process from a fixed, seeded job list, closed loop with one
caller.  See perfbench/README.md.

    python3 perfbench/run.py --workload proof --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --selfcheck

With --trace 0 the last line of standard output holds the end-to-end
metrics, with --trace 1 the per-layer metrics of a separate traced run.  The
line before it holds the raw (uncorrected) wall-clock figures.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("proof", "protocol", "mtlc", "cli")
SETUP_PROBES = 3  # set-up-only processes beside the measuring one
DEADLINE_S = 170


class Failed(Exception):
    pass


def child(workload: str, seed: int, mode: str, seconds: float, deadline: float) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--mode", mode, "--seconds", str(seconds),
            "--out", str(OUT), "--t0", repr(time.perf_counter())]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise Failed("out of time")
    try:
        proc = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise Failed(f"{workload} {mode} did not finish in time") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        raise Failed(f"{workload} {mode} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def correct(res: dict) -> bool:
    if res["wrong"]:
        for e in res["errors"]:
            print(f"  {e}", file=sys.stderr)
    return res["wrong"] == 0


def declared(kind: str) -> dict[str, str]:
    """Metric names and units of one kind, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def report(values: dict, kind: str) -> dict:
    units = declared(kind)
    if set(values) != set(units):
        raise Failed(f"measured {sorted(set(values) ^ set(units))} "
                     f"do not match the {kind} metrics of BENCHMARK.json")
    return {k: {"value": values[k], "unit": u} for k, u in units.items()}


def untraced(workload: str, seed: int, seconds: float, deadline: float) -> dict:
    setups = [child(workload, seed, "setup", 0, deadline)["setup_s"]
              for _ in range(SETUP_PROBES)]
    res = child(workload, seed, "measure", seconds, deadline)
    setups.append(res["setup_s"])
    print(json.dumps({"workload": workload, "seed": seed, "jobs": res["jobs"],
                      "rounds": res["rounds"], "raw": res["raw"],
                      "raw_setup_s": res["setup_raw_s"], "setup_s_each": setups}))
    values = dict(res["scaled"], setup_s=statistics.median(setups),
                  peak_rss_mb=res["peak_rss_mb"])
    return {"correct": correct(res), "attempted": res["attempted"],
            "failed": res["failed"], "metrics": report(values, "end_to_end")}


def traced(workload: str, seed: int, deadline: float) -> dict:
    res = child(workload, seed, "trace", 0, deadline)
    return {"correct": correct(res), "attempted": res["attempted"],
            "failed": res["failed"], "metrics": report(res["metrics"], "per_layer")}


def selfcheck(seed: int, deadline: float) -> int:
    ok = True
    for w in WORKLOADS:
        res = child(w, seed, "quick", 0, deadline)
        good = correct(res)
        ok &= good
        print(f"{w}: {'ok' if good else 'WRONG'} attempted={res['attempted']} "
              f"failed={res['failed']} jobs={res['jobs']} setup_s={res['setup_s']:.2f}")
        for e in res["errors"]:
            print(f"  {e}")
    return 0 if ok else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selfcheck", action="store_true",
                    help="run a few jobs of every workload with all checks")
    args = ap.parse_args()
    if not (ROOT / "src" / "multirole").is_dir():
        print(f"no program source at {ROOT / 'src' / 'multirole'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    OUT.mkdir(exist_ok=True)
    try:
        if args.selfcheck:
            return selfcheck(args.seed, deadline)
        if args.workload is None:
            ap.error("--workload is required (or --selfcheck)")
        if args.trace:
            result = traced(args.workload, args.seed, deadline)
        else:
            result = untraced(args.workload, args.seed, args.seconds, deadline)
    except Failed as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
