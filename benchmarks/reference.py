"""A fixed reference kernel that measures how fast the machine runs right now.

On a shared two-core host the same pure-Python loop can swing by half its
time between two-second windows, so raw wall seconds of one run say as much
about the neighbours as about the program.  The benchmark therefore runs this
kernel in short slices just before and just after every timed operation and
scales the operation's raw time by ``NOMINAL_S / measured``: the time the
operation would have taken on the machine at the speed at which the nominal
figure was fixed.

The kernel is deliberately independent of polyshannon, so no change to the
program can move it: an interpreted loop (the mpmath oracle and the verify
battery spend most of their time interpreting) and a numpy vector pass (the
dense reconstructions spend theirs in numpy).
"""

from __future__ import annotations

import os
import statistics
import time
from dataclasses import dataclass

import numpy as np

#: median time of one kernel call on the machine where the benchmark was
#: calibrated (see README.md, "Reference kernel"); fixed, never re-measured
NOMINAL_S = 0.00115

#: kernel calls per slice; a slice reports their median
CALLS_PER_SLICE = 9

#: slices on each side of an operation whose median scales it
REACH = 2

_LOOP = 2000
_MASK = (1 << 128) - 1
_TABLE = 4096
_QUERIES = 4096
_PASSES = 12
_STREAM = 1 << 18


class Reference:
    """Owns the reference kernel's inputs and times slices of it."""

    def __init__(self) -> None:
        rng = np.random.default_rng(12345)
        self._table = rng.uniform(1.0, 2.0, _TABLE)
        self._index = rng.integers(0, _TABLE - _PASSES, _QUERIES)
        self._x = rng.uniform(0.0, 1.0, _QUERIES)
        self._big = rng.uniform(1.0, 2.0, (3, _STREAM))
        self.slices: list[float] = []

    def _kernel(self) -> int:
        # 128-bit integer arithmetic, as in mpmath's pure-Python mantissas
        a, b = 123456789123456789, 987654321987654321
        for i in range(_LOOP):
            a = ((a * b + i) >> 17) & _MASK
        # gathered multiply-accumulate, as in 6-point table interpolation;
        # the arrays stay small enough to come from the heap, not from mmap
        acc = np.zeros(_QUERIES)
        for k in range(_PASSES):
            acc += self._table[self._index + k] * (self._x - k)
        # a streaming pass over arrays larger than the core's caches
        np.multiply(self._big[0], self._big[1], out=self._big[2])
        return a + int(acc[0]) + int(self._big[2, 0])

    def slice(self) -> float:
        """Median seconds of one kernel call over a short slice."""
        times = []
        for _ in range(CALLS_PER_SLICE):
            t0 = time.perf_counter()
            self._kernel()
            times.append(time.perf_counter() - t0)
        med = statistics.median(times)
        self.slices.append(med)
        return med


@dataclass(frozen=True)
class Timing:
    raw: float  # wall seconds
    before: int  # index of the slice taken just before the operation


class Clock:
    """Times operations between reference slices and normalises them.

    Consecutive operations share the slice between them.  An operation is
    scaled by the median of the ``REACH`` slices on either side of it, which
    follows the machine's swings over a few operations without letting one
    odd slice move the result.
    """

    def __init__(self, reference: Reference) -> None:
        self.reference = reference
        self._fresh = True

    def time(self, fn, *args) -> tuple[object, Timing]:
        """Run ``fn(*args)`` between two slices; return (result, timing)."""
        if self._fresh:
            self.reference.slice()
        before = len(self.reference.slices) - 1
        t0 = time.perf_counter()
        result = fn(*args)
        raw = time.perf_counter() - t0
        self.reference.slice()
        self._fresh = False
        return result, Timing(raw, before)

    def forget(self) -> None:
        """Take a fresh slice before the next operation, after untimed work."""
        self._fresh = True

    def normalised(self, timing: Timing) -> float:
        """``timing.raw`` at the machine speed at which NOMINAL_S was fixed."""
        slices = self.reference.slices
        lo = max(0, timing.before - REACH + 1)
        return timing.raw * NOMINAL_S / statistics.median(
            slices[lo:timing.before + 1 + REACH])


def pin_to_one_cpu() -> None:
    """Keep this process (and its children) on one CPU.

    The reference slices then always measure the core that runs the timed
    operations.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def calibrate(seconds: float = 60.0) -> float:
    """Median kernel time over back-to-back slices for ``seconds``."""
    pin_to_one_cpu()
    reference = Reference()
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        reference.slice()
    return statistics.median(reference.slices)


if __name__ == "__main__":
    print(f"median kernel time {calibrate():.6f} s (NOMINAL_S = {NOMINAL_S})")
