"""Jobs, the drift reference and the timing loop shared by every workload.

A job is one closed-loop call sequence into the program: `run()` is timed,
`check(out)` is not, and checks the output against a property or an
independent computation.  A job whose `run()` raises counts as a failed
operation; a job whose output fails its check makes the run incorrect.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable


class WrongOutput(Exception):
    """A job returned, but its output is not the known answer."""


def expect(cond: bool, msg: str) -> None:
    if not cond:
        raise WrongOutput(msg)


@dataclass
class Job:
    id: str
    kind: str
    run: Callable[[], object]
    check: Callable[[object], None]


# ------------------------------------------------------------ drift reference
#
# This host changes speed by up to 1.7x in windows of a few tenths of a
# second, and pure Python slows with it.  While jobs run, an interval timer
# runs a fixed reference computation (nothing from the program) every
# SAMPLE_EVERY_S and records how long it took.  A job's time is scaled by
# NOMINAL_S / (mean reference time around the job): the samples taken during
# the job, widened to the MIN_SAMPLES nearest ones for a short job.  NOMINAL_S
# is the reference's time, sampled inside jobs, when this host runs at its
# fast speed, so a scaled time reads as seconds on this host at that speed.

SAMPLE_EVERY_S = 0.005
MIN_SAMPLES = 4
NOMINAL_S = 0.000022


def reference() -> int:
    """Fixed pure-Python work: tuple keys, hashing and dict stores."""
    counts: dict = {}
    for i in range(120):
        key = (i % 7, i)
        counts[key] = hash(key) & 3
    return len(counts)


class Sampler:
    """Times reference() on every SIGALRM while active."""

    def __init__(self):
        self.at: list[float] = []
        self.times: list[float] = []

    def _tick(self, signum, frame) -> None:
        # the first run refills the caches the job took over; time the second
        reference()
        t0 = time.perf_counter()
        reference()
        self.at.append(t0)
        self.times.append(time.perf_counter() - t0)

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)

    def factor(self, t0: float, t1: float) -> float:
        """NOMINAL_S / mean sample over [t0, t1], widened as needed."""
        lo, hi = bisect.bisect_left(self.at, t0), bisect.bisect_right(self.at, t1)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.at)):
            if lo > 0 and (hi == len(self.at) or t0 - self.at[lo - 1] < self.at[hi] - t1):
                lo -= 1
            else:
                hi += 1
        return NOMINAL_S * (hi - lo) / sum(self.times[lo:hi])


# ----------------------------------------------------------------- the loop


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    errors: list = field(default_factory=list)

    def note(self, job: Job, err: BaseException, failed: bool) -> None:
        if len(self.errors) < 20:
            self.errors.append(f"{job.id}: {type(err).__name__}: {err}")
        if failed:
            self.failed += 1
        else:
            self.wrong += 1

    def check(self, job: Job, out) -> None:
        try:
            job.check(out)
        except Exception as e:  # any failure of a check is a wrong output
            self.note(job, e, failed=False)


def run_checked(job: Job, outcome: Outcome, profile=None) -> None:
    """Run and check a job once, untimed; only job.run() is profiled."""
    outcome.attempted += 1
    if profile is not None:
        profile.enable()
    try:
        out = job.run()
    except Exception as e:  # a fault in the program: count it, keep going
        outcome.note(job, e, failed=True)
        return
    finally:
        if profile is not None:
            profile.disable()
    outcome.check(job, out)


def measure(jobs: list[Job], seconds: float, min_rounds: int = 3):
    """Interleaved rounds over the fixed job list until `seconds` have passed.

    Returns (raw, scaled, outcome, rounds): per job, the list of raw wall
    times and of drift-corrected times, one entry per round.
    """
    spans = [[] for _ in jobs]
    outcome = Outcome()
    start = time.perf_counter()
    rounds = 0
    with Sampler() as sampler:
        while rounds < min_rounds or time.perf_counter() - start < seconds:
            for i, job in enumerate(jobs):
                outcome.attempted += 1
                # every job starts from the same collector state
                gc.collect()
                t0 = time.perf_counter()
                try:
                    out = job.run()
                    err = None
                except Exception as e:
                    err = e
                spans[i].append((t0, time.perf_counter()))
                if err is None:
                    outcome.check(job, out)
                else:
                    outcome.note(job, err, failed=True)
            rounds += 1
        # a short job's nearest samples may come after it: scale at the end
        raw = [[t1 - t0 for t0, t1 in ts] for ts in spans]
        scaled = [[(t1 - t0) * sampler.factor(t0, t1) for t0, t1 in ts] for ts in spans]
    return raw, scaled, outcome, rounds


def nearest_rank(sorted_values: list[float], q: float) -> float:
    """The q-quantile as a measured value (nearest-rank definition)."""
    k = max(1, -(-len(sorted_values) * q // 1))
    return sorted_values[int(k) - 1]


def summarise(per_job: list[list[float]]) -> dict:
    """End-to-end figures from per-job times (seconds) over rounds."""
    med = sorted(statistics.median(ts) for ts in per_job)
    return {
        "jobs_per_s": len(med) / sum(med),
        "job_ms_p50": statistics.median(med) * 1e3,
        "job_ms_p90": nearest_rank(med, 0.9) * 1e3,
    }


def node_count(d) -> int:
    n, stack = 0, [d]
    while stack:
        x = stack.pop()
        n += 1
        stack.extend(x.premises)
    return n
