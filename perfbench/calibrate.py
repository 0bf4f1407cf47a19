"""Host-speed calibration for the benchmark's timings.

The benchmark runs on a few vCPUs of a shared host whose speed drifts by up
to two times within a minute, and process CPU time drifts with it (the
slowdown is contention on the host, not steal time).  So every timing is
taken next to a calibration probe: a fixed slice of pure-Python work that
uses no code of the program, run on the same CPU just before and just
after the timed operation.  An operation's *reference time* is its host
time scaled by ``REFERENCE_PROBE_S`` over the mean of its two probes: the
time it would have taken on a host that runs one probe in exactly
``REFERENCE_PROBE_S`` seconds.  A change to the program moves the operation
and not the probe, so it moves the reference time; a host phase moves both
and cancels.
"""

from __future__ import annotations

import gc
import heapq
import statistics
import time
from typing import List

#: Seconds one probe takes at the reference speed (a round figure; one
#: probe took 2-3 ms on the 2-vCPU VM the benchmark was tuned on).  Fixed,
#: so reference times of different runs and hosts share one scale.
REFERENCE_PROBE_S = 0.002
#: Kernel passes in one probe, and probes per calibration point.
PROBE_PASSES = 1500
PROBES_PER_POINT = 3


class _Event:
    __slots__ = ("time", "owner", "payload")

    def __init__(self, time: int, owner: int, payload: int) -> None:
        self.time = time
        self.owner = owner
        self.payload = payload


def _kernel(passes: int) -> int:
    """Event-queue, dict and attribute work, in the mix a discrete-event
    simulator in Python does, with a small, fixed footprint."""
    queue: list = []
    owners: dict = {}
    recent: List[_Event] = []
    total = 0
    for index in range(passes):
        event = _Event((index * 7919) % 1009, index % 61, index)
        heapq.heappush(queue, (event.time, index, event))
        owners[event.owner] = owners.get(event.owner, 0) + event.payload
        recent.append(event)
        if len(queue) > 48:
            _, _, done = heapq.heappop(queue)
            total += done.payload - owners.get(done.owner, 0) % 13
        if len(recent) > 96:
            del recent[:32]
    return total


def probe() -> float:
    """Host seconds of one calibration point: the median of a few probes.

    The collector is off while the probes run, so that their allocations
    cannot set off a collection of the program's heap (which would charge
    program work to the probe, outside every timing).  The probes free all
    they allocate, so the collector's allocation count is where it was.
    """
    seconds = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(PROBES_PER_POINT):
            started = time.perf_counter()
            _kernel(PROBE_PASSES)
            seconds.append(time.perf_counter() - started)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(seconds)


def to_reference(host_seconds: float, before: float, after: float) -> float:
    """Reference time of an operation that took ``host_seconds`` between
    calibration points that read ``before`` and ``after``."""
    return host_seconds * REFERENCE_PROBE_S / ((before + after) / 2.0)
