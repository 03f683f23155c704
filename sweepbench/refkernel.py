"""Frozen reference kernel used to normalise host time.

Host speed on a shared machine swings within a second and drifts over
minutes, so short calls of this kernel are interleaved with the timed work
(from a wall-clock timer signal every 50 ms, and around every pass), and
host-time metrics are reported as
``raw_seconds / reference_seconds * REFERENCE_SECONDS``, where
``reference_seconds`` is the mean kernel time over the same stretch: the
time the work would take on a host where this kernel takes
``REFERENCE_SECONDS``.

The kernel is a small heapq + generator event loop with slotted event
objects and callback lists: the same interpreter work (heap operations,
generator resumes, attribute access, small allocations) that dominates a
``repro`` simulation.  It deliberately does not import ``repro``, so no
change to the program can move it.  Never edit it: a new kernel is a new
normalisation and makes every recorded host-time figure incomparable.
"""

from __future__ import annotations

import time
from heapq import heappop, heappush

#: CPU seconds of one ``reference_kernel()`` call on the host the benchmark
#: was calibrated on (about the median of 300 calls on a shared 2-vCPU
#: 2.1 GHz Xeon VM, CPython 3.11).  Host-time metrics are expressed at this
#: speed.
REFERENCE_SECONDS = 0.0041

#: The kernel's checksum (events processed); a different value means the
#: interpreter did different work and the normalisation is void.
REFERENCE_CHECKSUM = 5010


class _Event:
    __slots__ = ("time", "callbacks", "value")

    def __init__(self, time: float) -> None:
        self.time = time
        self.callbacks: list = []
        self.value = None


def _process(index: int, steps: int):
    total = 0.0
    for step in range(steps):
        delay = ((index * 7 + step * 13) % 17 + 1) * 1e-3
        value = yield delay
        total += value
    return total


def reference_kernel(processes: int = 10, steps: int = 500) -> int:
    """Run the frozen event loop; returns the number of events processed."""
    queue: list = []
    generators = [_process(index, steps) for index in range(processes)]
    eid = 0
    for index, generator in enumerate(generators):
        event = _Event(0.0)
        event.callbacks.append(index)
        heappush(queue, (0.0, eid, event))
        eid += 1
    processed = 0
    started = {}
    while queue:
        now, _eid, event = heappop(queue)
        processed += 1
        for index in event.callbacks:
            generator = generators[index]
            try:
                if index in started:
                    delay = generator.send(now)
                else:
                    started[index] = True
                    delay = next(generator)
            except StopIteration:
                continue
            follow = _Event(now + delay)
            follow.callbacks.append(index)
            heappush(queue, (follow.time, eid, follow))
            eid += 1
    return processed


def time_reference() -> float:
    """CPU seconds of one reference-kernel call (checksum verified)."""
    start = time.process_time()
    processed = reference_kernel()
    elapsed = time.process_time() - start
    if processed != REFERENCE_CHECKSUM:
        raise RuntimeError(f"reference kernel processed {processed} events, "
                           f"expected {REFERENCE_CHECKSUM}")
    return elapsed
