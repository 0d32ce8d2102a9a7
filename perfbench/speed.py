"""Machine-speed probe, so that timings from a shared host can be compared.

On a shared virtual machine the same Python code runs up to 1.6 times
slower for stretches of seconds to minutes, as other tenants load the
host. A background thread therefore runs a fixed pure-Python job every
PERIOD_S and records the job's CPU time. Every timing the benchmark
reports is scaled to reference speed: multiplied by the mean speed the
probe saw around the timed interval, where a job taking REFERENCE_S runs
at speed 1. The mean drops the fastest and slowest tenth of the samples.
The time the probe itself held the interpreter inside an interval is taken
out first.
"""

from __future__ import annotations

import bisect
import statistics
import threading
import time
from typing import NamedTuple

PERIOD_S = 0.025
WINDOW_S = 0.1  # probes this far outside an interval still describe it
REFERENCE_S = 0.00025  # CPU time of one probe job at reference speed


def probe_job() -> int:
    """Interpreter work of the kind the package does: tuples, dicts, ints."""
    seen: dict[tuple[int, int], int] = {}
    acc = 0
    for i in range(600):
        pair = (i & 31, (i * 7) & 31)
        seen[pair] = seen.get(pair, 0) + 1
        acc ^= pair[0] << (pair[1] & 7)
    return acc + len(seen)


class Sample(NamedTuple):
    start: float  # perf_counter at job start
    end: float
    cpu: float  # thread CPU seconds the job took


class SpeedProbe:
    def __init__(self) -> None:
        self.samples: list[Sample] = []
        self._starts: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speed-probe", daemon=True)

    def _run(self) -> None:
        clock, cpu = time.perf_counter, time.thread_time
        while not self._stop.wait(PERIOD_S):
            w0, c0 = clock(), cpu()
            probe_job()
            c1, w1 = cpu(), clock()
            self.samples.append(Sample(w0, w1, c1 - c0))
            self._starts.append(w0)

    def __enter__(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _around(self, t0: float, t1: float) -> tuple[int, int]:
        starts = self._starts
        i = bisect.bisect_left(starts, t0 - WINDOW_S)
        j = bisect.bisect_right(starts, t1 + WINDOW_S)
        if j - i < 3:
            i, j = max(0, i - 2), min(len(starts), j + 2)
        if i >= j:
            raise RuntimeError("the speed probe recorded no samples")
        return i, j

    def scaled(self, t0: float, t1: float) -> float:
        """Seconds the interval [t0, t1] would take at reference speed."""
        i, j = self._around(t0, t1)
        window = self.samples[i:j]
        held = sum(max(0.0, min(s.end, t1) - max(s.start, t0)) for s in window)
        speeds = sorted(REFERENCE_S / s.cpu for s in window)
        trim = len(speeds) // 10
        speed = statistics.fmean(speeds[trim : len(speeds) - trim])
        return max(0.0, t1 - t0 - held) * speed
