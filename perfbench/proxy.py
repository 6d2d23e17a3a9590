"""Host-speed proxy: a fixed numpy imitation of one sLSTM step.

On a shared host the CPU speed one process gets drifts by ±15–25 % over
seconds to minutes, which swamps run-to-run comparisons. While an untraced
run measures, SpeedProbe runs a short burst of the proxy from a SIGALRM
handler every INTERVAL_S seconds, so its samples cover the run as evenly as
the workload's own. The proxy does not use pslstm, so a change to the
library cannot move it, but at the workload's own row count and width it
slows down and speeds up with the host as the workload does: on the 2-core
development host, over 8-second windows, the log of a workload's time
varied with sd 0.07–0.11 and its log ratio to the matching proxy with sd
0.016–0.034.

Each throughput is rescaled by the proxy's mean iteration time during its
own samples over `reference_s`, so it reads as a wall-clock rate on a host
where one proxy iteration takes `reference_s`. The bursts take 2–4 % of
the run's wall time, inside the workload's timings; that share does not
depend on pslstm's speed.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.2


class SpeedProbe:
    """Times proxy bursts on SIGALRM while used as a context manager."""

    def __init__(self, rows: int, width: int, iterations: int,
                 reference_s: float, stream: int = 0):
        rng = np.random.default_rng(0)
        self.x = rng.standard_normal((rows, width))
        self.w = rng.standard_normal((width, 4 * width)) / np.sqrt(width)
        # optimizer-like in-place update over `stream` values per iteration
        self.moment = np.zeros(stream)
        self.grad = rng.standard_normal(stream)
        self.width = width
        self.iterations = iterations
        self.reference_s = reference_s
        self.bursts: list[tuple[float, float]] = []   # (start, seconds)
        self._previous = None

    def _iteration(self) -> None:
        d = self.width
        z = self.x @ self.w
        gate = np.exp(np.minimum(z[:, d:2 * d], 0.0))
        cell = np.tanh(z[:, :d]) * gate + z[:, 2 * d:3 * d]
        float(np.max(np.abs(cell)))
        self.moment *= 0.9
        self.moment += self.grad

    def burst(self, *signal_args) -> None:
        """One untimed iteration to bring the proxy's arrays back into
        cache, so the workload's own footprint does not slow the timed
        ones; then `iterations` timed iterations."""
        start = time.perf_counter()
        if self.bursts and start - sum(self.bursts[-1]) < INTERVAL_S / 2:
            return              # a late signal: never starve the workload
        self._iteration()
        timed = time.perf_counter()
        for _ in range(self.iterations):
            self._iteration()
        self.bursts.append((timed, time.perf_counter() - timed))

    def factor(self, samples=()) -> float:
        """Mean iteration time of the bursts that ran inside the samples'
        intervals (all bursts if none did or no samples are given), over
        the reference: > 1 means the host ran slower. Samples must be in
        time order."""
        if not self.bursts:     # a run shorter than INTERVAL_S
            self.burst()
        starts = [s.start for s in samples]
        inside = []
        for at, seconds in self.bursts:
            k = bisect.bisect_right(starts, at) - 1
            if k >= 0 and at < samples[k].start + samples[k].seconds:
                inside.append(seconds)
        mean = statistics.fmean(inside or [b for _, b in self.bursts])
        return mean / self.iterations / self.reference_s

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self.burst)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
