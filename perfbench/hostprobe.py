"""Host speed reference for the end-to-end times.

On a shared host, other tenants slow every instruction stream for seconds
at a time, by up to 2x on the 2-CPU machine this benchmark was tuned on.
The reference kernel below does the two kinds of work the commands do:
numpy on 1000-element arrays, and a plain Python loop.  The workload
process times a block of it before, between and after the commands.  A
command's time multiplied by NOMINAL_S / k, where k is the mean kernel
time of the two blocks that bracket the command, is the time the command
would take at the kernel's nominal speed.  That product cancels most of
the host's drift.
"""

from __future__ import annotations

import time

import numpy as np

#: kernel time in seconds on an uncontended core of that machine
#: (x86-64 guest, 2 vCPUs at 2.0 GHz, Python 3.11, numpy 2.4)
NOMINAL_S = 2.0e-3
#: kernel repetitions per sample block, about 50 ms at nominal speed
BLOCK = 25


def kernel_s() -> float:
    """Wall time of one fixed reference kernel."""
    x = np.arange(1000.0)
    t0 = time.perf_counter()
    for _ in range(300):
        y = x[:-1] * 0.5 + x[1:]
        x[:-1] = np.maximum(y, x[:-1]) * 0.999
    s = 0
    for i in range(20000):
        s += i
    return time.perf_counter() - t0


def block() -> list[float]:
    """Kernel times of one sample block."""
    return [kernel_s() for _ in range(BLOCK)]
