"""Correction of unit wall times for the machine's momentary speed.

The benchmark host shares its cores with other tenants.  Measured on a
shared 2-vCPU virtual machine (Intel Xeon, 2.1 GHz), the same
single-threaded work ran up to twice as slow for stretches of 1 to 20 s,
on either vCPU, with process CPU time slowing as much as wall time; a 30 s
run's throughput varied by up to ±20% from run to run.

``SpeedProbe`` samples that speed while units run: every ``PERIOD_S`` of
wall time a SIGALRM handler times one of three fixed reference kernels, in
turn.  They cover the mixes framelift's point-wise code runs: 4x4 NumPy
products, pure-Python dict and list work, and 12x12 solves and einsums.
No one kernel tracked every workload; their average did best.

``corrected`` removes the probes' own time from a unit and scales the rest,
for each kernel, by (reference time / probe time), then averages the three
scales.  The probe time is averaged over the kernel's probes inside the
unit, or taken from its nearest probes for a unit too short to hold several.
The reference times are about the fastest each kernel ran on the machine
above, so a corrected time estimates the unit's wall time on that machine
running at full speed.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.02
NEAREST = 5  # probes of one kernel used for a unit that spans fewer

_A = np.linspace(0.1, 1.0, 16).reshape(4, 4)
_I = np.eye(4)
_B = np.linspace(0.1, 1.0, 144).reshape(12, 12) + 3 * np.eye(12)
_V = np.linspace(1.0, 2.0, 12)
_T = np.linspace(0.1, 1.0, 27).reshape(3, 3, 3)


def _small_products() -> float:
    s, m = 0.0, _A
    for i in range(30):
        m = (m @ _A) * 0.25 + _I
        s += float(m[0, 0]) + i
    return s


def _python_objects() -> float:
    d = {}
    for i in range(120):
        d[(i % 7, i)] = [float(i) * 0.5, i // 3]
    return sum(v[0] for k, v in sorted(d.items()) if k[0] != 3)


def _solves() -> float:
    s = 0.0
    for i in range(6):
        x = np.linalg.solve(_B, _V + i)
        y = np.einsum("ijk,k->ij", _T, x[:3])
        s += float((_B @ x).sum() + y.trace())
    return s


# (kernel, reference seconds)
KERNELS = ((_small_products, 60e-6), (_python_objects, 80e-6), (_solves, 105e-6))


class SpeedProbe:
    """Context manager timing the reference kernels, in turn, at a fixed period."""

    def __init__(self):
        self.at: list[list[float]] = [[] for _ in KERNELS]
        self.took: list[list[float]] = [[] for _ in KERNELS]
        self._count = 0
        self._previous = None

    def _probe(self, signum, frame) -> None:
        k = self._count % len(KERNELS)
        self._count += 1
        start = time.perf_counter()
        KERNELS[k][0]()
        self.at[k].append(start)
        self.took[k].append(time.perf_counter() - start)

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def corrected(self, start: float, end: float) -> float:
        """Wall time of [start, end] at the reference speed; call after exit."""
        if any(len(t) < NEAREST for t in self.took):
            return end - start
        own, scales = 0.0, []
        for (_, ref), at, took in zip(KERNELS, self.at, self.took):
            lo, hi = bisect.bisect_left(at, start), bisect.bisect_left(at, end)
            inside = took[lo:hi]
            own += sum(inside)
            if len(inside) >= NEAREST:
                # probes are evenly spaced in time, so this is the time-averaged speed
                scales.append(statistics.fmean(ref / t for t in inside))
            else:
                mid = bisect.bisect_left(at, (start + end) / 2)
                lo = max(0, min(mid - NEAREST // 2, len(at) - NEAREST))
                scales.append(ref / statistics.median(took[lo:lo + NEAREST]))
        return (end - start - own) * statistics.fmean(scales)
