"""The machine's speed, measured by a fixed reference kernel.

A shared machine can change speed by half over a few minutes, in CPU time as
in wall time, so raw times from runs made minutes apart differ more than any
change worth measuring.  The reference kernel does a fixed mix of the kind of
work the program does and runs between operations; each operation's time is
scaled by the kernel's time measured just before it:

    scaled = seconds * NOMINAL_MS / reference_ms

A scaled time is what the operation would take on the machine when the kernel
takes NOMINAL_MS.  The kernel uses numpy only, never pintune, so no change to
the program moves it.
"""

import math
import statistics
from time import perf_counter

import numpy as np

NOMINAL_MS = 0.75  # the kernel's median time that scaled times refer to
BLOCK = 40  # kernel calls per measurement, of which the median counts
EVERY_S = 0.5  # least time from one measurement to the next

_F = np.linspace(-1.0, 1.0, 1201)


def kernel():
    """A Lorentzian lineshape on 1201 points, a 4-parameter normal-equation
    solve and a Python loop over floats, ten times."""
    acc = 0.0
    for k in range(10):
        x = _F - 1e-3 * k
        resp = 1.0 - 0.3 * np.exp(0.2j) / (1.0 + 2j * 50.0 * x)
        r = resp.real**2 + resp.imag**2
        jac = np.stack([r, x, x * r, np.ones_like(x)], axis=1)
        acc += float(np.linalg.solve(jac.T @ jac + np.eye(4), jac.T @ r).sum())
        acc += sum(float(v) for v in r[:50])
    return acc


def reference_ms():
    """Median time of one kernel call over a block, in ms."""
    times = []
    for _ in range(BLOCK):
        t0 = perf_counter()
        kernel()
        times.append(perf_counter() - t0)
    return 1e3 * statistics.median(times)


def scaled(seconds, ref_ms):
    return seconds * NOMINAL_MS / ref_ms


class Speed:
    """The latest reference time, measured again when asked at least EVERY_S
    after the last measurement ended."""

    def __init__(self):
        self.samples = []
        self._at = -math.inf

    def current(self):
        if perf_counter() - self._at >= EVERY_S:
            self.samples.append(reference_ms())
            self._at = perf_counter()
        return self.samples[-1]

    def summary(self):
        s = self.samples
        return {"n": len(s), "median_ms": statistics.median(s), "min_ms": min(s), "max_ms": max(s)} if s else {"n": 0}
