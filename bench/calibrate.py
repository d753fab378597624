"""Host-speed calibration for timings taken on a shared machine.

On a small shared host the speed of one CPU drifts with its neighbours'
load: one `resum` operation pinned to one CPU took anywhere from 2.3 to
7.6 ms within minutes, with no steal time reported, in long slow and fast
stretches that a median over one run does not remove.  A fixed kernel is
timed between operations, and each operation's time is rescaled to the
speed at which the kernel takes KERNEL_NOMINAL_S.  The program's own
speed-ups and slow-downs pass through unchanged; the host's mostly cancel.

The kernel is numpy arithmetic on a few thousand complex values, the
shape of the quadrature's rotating-frame integrand.  Against one-minute
traces of the sweep, verify and resum operations its time tracked theirs
as well as or better than interpreted-Python kernels did (interquartile
spread of the operation/kernel ratio 0.02-0.07, against 0.10-0.16 raw).
"""
from __future__ import annotations

import math
from time import perf_counter

import numpy as np

# The kernel's best time on an uncontended 2.0 GHz Xeon vCPU with numpy 2.4;
# a rescaled time reads as wall time at that speed.  Changing it rescales
# every recorded timing.
KERNEL_NOMINAL_S = 0.0016

_GRID = np.linspace(0.0, 1.0, 2001)
_OMEGA = np.array([9.0, 6.0, 0.1])
_COUPLING = np.array([[0.0, 0.0, -1.0], [-1.0, 0.0, 0.0], [0.0, -2.0, 0.0]], dtype=complex)


def _kernel() -> None:
    for _ in range(8):
        phase = np.exp(-1j * _GRID[:, None] * _OMEGA[None, :])
        integrand = np.conj(phase) * ((phase * phase[::-1]) @ _COUPLING.T)
        np.cumsum(integrand, axis=0)


def sample(repeats: int = 3) -> float:
    """Seconds the calibration kernel takes right now: the best of `repeats`
    runs, which drops the odd run disturbed by a process start or exit."""
    best = math.inf
    for _ in range(repeats):
        start = perf_counter()
        _kernel()
        best = min(best, perf_counter() - start)
    return best


def scales(samples: list[float], marks: list[int]) -> list[float]:
    """Factor per operation: nominal over the mean of the samples around it.

    marks[k] is the index of the last sample taken before operation k;
    the next sample was taken after it.
    """
    return [2.0 * KERNEL_NOMINAL_S / (samples[m] + samples[m + 1]) for m in marks]
