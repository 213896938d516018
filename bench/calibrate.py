"""Host-speed reference for the end-to-end times.

The benchmark runs on a shared host whose speed drifts with other tenants'
load: by tens of percent over seconds, and at times by half over minutes.
A job's wall time then measures the neighbours as much as homkit.  Two
things make it steadier.  A job is timed by its thread's CPU time, which
leaves out the time it waits while other processes hold the cores.  And
the timed loop also runs, between jobs and outside the timed region, a
fixed reference task that does not touch homkit: the oracle's Smith
elimination on fixed matrices, a JSON round trip and an argparse parse,
the same kinds of pure-Python work a homkit job does.  Each job's CPU time
is scaled by NOMINAL_S over the median reference CPU time around it, which
takes out a neighbour slowing the cores themselves: the result is the
job's time at the reference speed.  A change to homkit cannot move the
reference, so a slower program still shows in full.
"""

from __future__ import annotations

import argparse
import bisect
import json
import random
import statistics
import time

import oracle

# Median reference CPU time in the timed loop on a quiet 2-core host
# (Python 3.11); it only sets the scale the times are reported in.
NOMINAL_S = 0.0024
# One reference sample per this much loop time, and the window of samples
# (seconds either side of a job) whose median sets that job's speed.
EVERY_S = 0.1
WINDOW_S = 1.0
MIN_SAMPLES = 7

_rng = random.Random(20070215)
_MATRICES = [[[_rng.randint(-40, 40) for _ in range(6)] for _ in range(6)] for _ in range(3)]
_DOC = {"rows": 6, "cols": 6, "data": [[str(_rng.randint(-10 ** 6, 10 ** 6)) for _ in range(6)]
                                       for _ in range(6)],
        "meta": {"command": "reference", "seed": 20070215, "flags": [True, False, None]}}


def reference_task() -> None:
    for m in _MATRICES:
        oracle.smith_diagonal(m)
    json.loads(json.dumps(_DOC, sort_keys=True, indent=2))
    parser = argparse.ArgumentParser(prog="reference")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("alpha", "beta", "gamma", "delta"):
        p = sub.add_parser(name, help=name)
        p.add_argument("input")
        p.add_argument("--n", type=int, default=0)
        p.add_argument("--variant", choices=["homology", "cohomology"])
    parser.parse_args(["beta", "x.json", "--n", "3"])


class Reference:
    """Reference samples of one run, in time order: when each ran (its
    midpoint on the perf_counter clock) and the CPU seconds it took."""

    def __init__(self):
        self.at: list[float] = []
        self.cpu: list[float] = []

    def sample(self) -> None:
        c0 = time.thread_time()
        t0 = time.perf_counter()
        reference_task()
        t1 = time.perf_counter()
        self.cpu.append(time.thread_time() - c0)
        self.at.append((t0 + t1) / 2)

    def due(self, now: float) -> bool:
        return not self.at or now - self.at[-1] >= EVERY_S

    def scale(self, start: float, end: float) -> float:
        """NOMINAL_S over the median reference CPU time of the samples within
        WINDOW_S of [start, end] (at least the MIN_SAMPLES nearest)."""
        lo = bisect.bisect_left(self.at, start - WINDOW_S)
        hi = bisect.bisect_right(self.at, end + WINDOW_S)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.at)):
            if lo > 0 and (hi == len(self.at) or start - self.at[lo - 1] <= self.at[hi] - end):
                lo -= 1
            else:
                hi += 1
        return NOMINAL_S / statistics.median(self.cpu[lo:hi])

