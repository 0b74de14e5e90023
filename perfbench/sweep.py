"""Scaling curves for the README: cut and check time against formula size,
runtime cost per event against run history, and `mtlc` evaluation time
against program length, plain and retyped.  Prints a Markdown table of raw
wall times beside drift-corrected ones (see core.NOMINAL_S).

    python3 perfbench/sweep.py [--seed 0]
"""

from __future__ import annotations

import argparse
import random
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from multirole import kernel as kn  # noqa: E402
from multirole import mtlc as mt  # noqa: E402
from multirole.logic import IFormula  # noqa: E402

import core  # noqa: E402
import gen  # noqa: E402
import wl_mtlc  # noqa: E402
import wl_protocol  # noqa: E402

REPEATS = 3


def timed(fn):
    """Median raw and drift-corrected seconds over REPEATS calls."""
    spans = []
    with core.Sampler() as sampler:
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            fn()
            spans.append((t0, time.perf_counter()))
        time.sleep(core.SAMPLE_EVERY_S * core.MIN_SAMPLES)
        scaled = [(t1 - t0) * sampler.factor(t0, t1) for t0, t1 in spans]
    return statistics.median(t1 - t0 for t0, t1 in spans), statistics.median(scaled)


def cuts(rng):
    print("| calculus | size | cut2_residual ms (raw / corrected) | check ms | output nodes | cut us/node | check us/node |")
    print("|---|---|---|---|---|---|---|")
    n, full = 3, 7
    for kind in ("lmrl", "mrl"):
        calc = kn.LMRL(n) if kind == "lmrl" else kn.MRL(n)
        for size in (3, 7, 15, 31, 63, 127):
            a = gen.formula(rng, kind, n, size)
            r1, r2 = 0b011, 0b110
            d1 = kn.axiom_multi(a, [r1, full & ~r1], calc)
            d2 = kn.axiom_multi(a, [r2, full & ~r2], calc)
            i1, i2 = d1.conclusion.index(IFormula(r1, a)), d2.conclusion.index(IFormula(r2, a))
            out = kn.cut2_residual(d1, i1, d2, i2, calc)
            nodes = core.node_count(out)
            c_raw, c = timed(lambda: kn.cut2_residual(d1, i1, d2, i2, calc))
            k_raw, k = timed(lambda: kn.check(out, calc))
            print(f"| {kind} | {size} | {c_raw * 1e3:.2f} / {c * 1e3:.2f} | "
                  f"{k_raw * 1e3:.2f} / {k * 1e3:.2f} | {nodes} | "
                  f"{c * 1e6 / nodes:.1f} | {k * 1e6 / nodes:.1f} |")


def history():
    print("| channels | events | run ms (raw / corrected) | us per event (raw / corrected) |")
    print("|---|---|---|---|")
    for channels in (100, 200, 400, 800, 1600):
        job = wl_protocol.long_job(channels, "sweep")
        events = len(job.run().trace)
        raw, scaled = timed(job.run)
        print(f"| {channels} | {events} | {raw * 1e3:.1f} / {scaled * 1e3:.1f} | "
              f"{raw * 1e6 / events:.1f} / {scaled * 1e6 / events:.1f} |")


def chains(rng):
    print("| length | plain ms (raw / corrected) | retyped ms (raw / corrected) | retyped / plain |")
    print("|---|---|---|---|")
    for length in (10, 20, 40, 80, 160):
        expr, _ = wl_mtlc.chain(rng, length)
        p_raw, p = timed(lambda: mt.eval_pool(expr, n=2))
        r_raw, r = timed(lambda: mt.eval_pool(expr, n=2, retype_every_step=True))
        print(f"| {length} | {p_raw * 1e3:.1f} / {p * 1e3:.1f} | "
              f"{r_raw * 1e3:.1f} / {r * 1e3:.1f} | {r / p:.1f} |")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    rng = random.Random(f"sweep:{args.seed}")
    cuts(rng)
    print()
    history()
    print()
    chains(rng)
    return 0


if __name__ == "__main__":
    sys.exit(main())
