"""The host's speed, measured next to every timed operation.

A shared host can change speed within seconds: on the 2-CPU virtual
machine this benchmark was sized on, a fixed loop alternated between about
1.4 and 2.3 ms, and one study operation between 85 and 145 ms, so the
median operation time of one run differed from the next by up to 40%.  The
benchmark therefore pins itself (and the processes it starts) to one CPU and
times this fixed kernel, which does not touch feederflow, before and after
every operation and set-up.  Each time is then reported at the reference
speed:

    scaled = measured * REFERENCE_MS / mean(kernel before, kernel after)

A change to feederflow moves the measured time and leaves the kernel alone,
so it moves the scaled time by the same factor; a change of host speed
moves both and mostly cancels.  REFERENCE_MS is the kernel's typical time on
that virtual machine, so scaled times read close to its measured ones.
"""
from __future__ import annotations

import os
import time

import numpy as np

REFERENCE_MS = 5.0

_WIDE = np.linspace(0.0, 50.0, 2001)
_NARROW = np.linspace(0.0, 1.0, 41)


def kernel_ms() -> float:
    """Time one fixed mix of interpreter work, large-array and small-array
    numpy work (the three kinds the workloads spend their time in), about a
    third each."""
    t0 = time.perf_counter_ns()
    acc = 0
    for i in range(17_500):
        acc += i * i
    for centre in np.linspace(0.3, 49.7, 140):
        dx = _WIDE - centre
        np.exp(-dx[np.abs(dx) <= 0.3] ** 2)
    for _ in range(145):
        dx = _NARROW - 0.5
        np.cumsum(np.exp(-dx[np.abs(dx) <= 0.3] ** 2))[::-1]
    return (time.perf_counter_ns() - t0) / 1e6


def scale(measured: float, before_ms: float, after_ms: float) -> float:
    return measured * REFERENCE_MS * 2.0 / (before_ms + after_ms)


def pin_to_one_cpu() -> None:
    """Run this process, and every process it starts, on one CPU, so that
    the kernel and the operation it brackets see the same CPU."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
