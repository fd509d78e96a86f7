"""Wall times corrected for the speed of a shared host.

On the reference host (a 2-CPU VM on a shared machine) the CPU runs in two
modes that switch every few tens of milliseconds: a fixed 30 ms loop of
small numpy operations takes either about 1.15x or about 2.1x its fastest
time, and the share of time spent in the slow mode drifts over seconds to
minutes. All of the slowdown is user CPU time. Raw wall times of identical
repetitions then differ by up to 2x, and medians of 20 s runs over seeds
spread by 14-30% (interquartile range over median).

``HostSpeed`` samples the host while a timed block runs: a SIGALRM every
``INTERVAL_S`` of wall time runs ``probe_seconds`` (about 1 ms of the same
kind of work riskseq does: small numpy calls and one Python object with a
closure per operation) in the same thread, so on the same CPU. The block's
wall time, minus the probes that ran inside it, is scaled by
``REFERENCE_S / mean(probe)`` over the fastest 90% of the probes. The
result is the time the block would have taken on a host where the probe
runs in ``REFERENCE_S``. Over 60 s of identical repetitions this cut the
coefficient of variation from 0.11-0.20 to 0.03-0.04 on the three training
workloads. The raw wall times are kept next to the corrected ones.

Child processes are timed correctly only when they run on the CPU this
process samples, so the benchmark pins itself (and so its children) to one
CPU.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# Probe time on the quiet mode of the reference host (2-CPU Intel Xeon VM,
# Python 3.11.7, numpy 2.4.6). A unit, not a tuned value: changing it
# rescales every corrected time.
REFERENCE_S = 0.0008
INTERVAL_S = 0.05
KEEP = 0.9  # the slowest 10% of probes are outliers (interrupts, GC)

_W = np.random.default_rng(20151208).uniform(-0.1, 0.1, (32, 32))


class _Node:
    __slots__ = ("value", "parents", "vjp")

    def __init__(self, value, parents, vjp):
        self.value, self.parents, self.vjp = value, parents, vjp


def probe_seconds() -> float:
    """Time a fixed recurrent loop recorded on a throwaway tape."""
    t0 = time.perf_counter()
    h = np.zeros(32)
    nodes = []
    for step in range(200):
        h = np.tanh(h @ _W + 0.1)
        nodes.append(_Node(h, (step,), lambda g, h=h: g * h))
    return time.perf_counter() - t0


class HostSpeed:
    """Times a ``with`` block and samples the host while it runs.

    ``wall`` is the block's raw wall time; ``seconds`` the same time in
    reference seconds; ``factor`` converts other durations measured inside
    the block (a span's duration times ``factor`` is in reference seconds).
    """

    def __enter__(self) -> "HostSpeed":
        self.samples = [probe_seconds()]
        self._inside: list[float] = []
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._t0 = time.perf_counter()
        return self

    def _sample(self, signum, frame) -> None:
        self._inside.append(probe_seconds())

    def __exit__(self, *exc) -> None:
        self.wall = time.perf_counter() - self._t0
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples += self._inside
        self.samples.append(probe_seconds())
        kept = sorted(self.samples)[: max(1, int(len(self.samples) * KEEP))]
        self.factor = REFERENCE_S / statistics.mean(kept)
        self.seconds = (self.wall - sum(self._inside)) * self.factor
