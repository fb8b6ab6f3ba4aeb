"""A fixed reference loop that measures how fast the machine runs while the work runs.

A shared virtual machine runs the same code up to twice as slow in some
spells than in others; its speed changes from one tenth of a second to the
next and drifts over minutes.  While a workload's work runs, a timer signal
interrupts it every ``INTERVAL`` seconds and the handler times one short
reference loop.  The runner subtracts the handler's time from the work's and
reports the work in multiples of the loop's time (unit ``cal``, see
``loop_time``), so that the machine's speed cancels out and the psrlab
code's does not.  The loop never calls psrlab, so a change to psrlab moves
the work's time and leaves the loop's alone.

The loop is interpreter work on tuples, dicts and floats plus small numpy
calls, the kind of work that dominates every workload.  A tree-sized numpy
pass (46,656 floats) and random reads over 10 MB of small objects were also
tried as reference loops, alone and added to this one.  Over five runs of
each workload, this loop alone gave a run-to-run spread (IQR/median) of
0.02-0.08; adding the tree pass gave 0.02 on two workloads but 0.07 and 0.14
on the other two, and every other choice did worse.
"""

from __future__ import annotations

import signal
import time

import numpy as np

INTERVAL = 0.025  # seconds of wall time between samples
KEPT = 0.75  # share of the fastest samples that ``loop_time`` averages
REFERENCE_S = 1e-3  # nominal loop time that ``around`` scales a calibrated time to
AROUND = 3  # loops timed before and after a call that ``around`` calibrates
_SMALL = np.linspace(0.1, 1.0, 36).reshape(6, 6)


def reference_loop() -> float:
    """About a millisecond of fixed work; returns a value so nothing is skipped."""
    total = 0.0
    counts: dict[tuple[int, int], int] = {}
    for i in range(1_500):
        key = (i % 7, i % 11)
        counts[key] = counts.get(key, 0) + 1
        total += counts[key] * 0.5
    x = _SMALL
    for _ in range(40):
        x = (x @ _SMALL) / (1.0 + x.sum())
    return total + float(x[0, 0])


def loop_time(samples: list[float]) -> float:
    """Mean of the fastest ``KEPT`` of the samples.

    A sample that lands on a stall of the virtual machine reads tens of
    times the usual loop time, and one such sample moved a pass's mean by
    a third; the slowest quarter, where these fall, is left out.
    """
    kept = sorted(samples)[: max(1, int(KEPT * len(samples)))]
    return sum(kept) / len(kept)


def _timed_loop() -> float:
    started = time.perf_counter()
    reference_loop()
    return time.perf_counter() - started


def around(fn) -> tuple[float, float]:
    """Time ``fn()``, too short to hold a timer sample, between reference loops.

    Returns its time in seconds and that time scaled to a machine on which
    the loop takes ``REFERENCE_S``: seconds at the reference speed.
    """
    before = [_timed_loop() for _ in range(AROUND)]
    started = time.perf_counter()
    fn()
    elapsed = time.perf_counter() - started
    after = [_timed_loop() for _ in range(AROUND)]
    return elapsed, elapsed * REFERENCE_S / loop_time(before + after)


class SpeedSampler:
    """Times ``reference_loop`` from a timer signal while a block runs.

    ``samples`` holds the loop times, the first taken on entry so that a
    block shorter than the interval has one; ``spent`` is the time the
    handler took inside the block, to be subtracted from its wall time.
    """

    def __init__(self, interval: float = INTERVAL) -> None:
        self.interval = interval
        self.samples: list[float] = []
        self.spent = 0.0
        self._previous = None

    def _sample(self) -> None:
        started = time.perf_counter()
        reference_loop()
        self.samples.append(time.perf_counter() - started)

    def _handler(self, signum, frame) -> None:
        started = time.perf_counter()
        self._sample()
        self.spent += time.perf_counter() - started

    def __enter__(self) -> "SpeedSampler":
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
