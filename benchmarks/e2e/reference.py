"""A fixed pure-Python reference loop that measures how fast the host is
right now.

A shared VM changes speed by 1.5x or more for seconds to minutes at a
time, as other tenants come and go.  Every timed section of the benchmark
is therefore paired with this loop, run just before and just after it,
and reported in *reference seconds*: its host seconds times
``REFERENCE_LOOP_S / (mean time of the loop around it)``.  A reference
second is a host second on a host where the loop takes
``REFERENCE_LOOP_S``.

The loop mimics the simulator's mix of work (a heap-ordered event loop
resuming generator processes that update objects and dicts) but imports
nothing from the simulator, so a change to the simulator cannot move it.
"""

from __future__ import annotations

import gc
import heapq
import time

#: The loop's wall time on the 2-vCPU Xeon VM the baseline was recorded
#: on, in its fast state (Python 3.11).
REFERENCE_LOOP_S = 0.11

_NODES = 2048
_EVENTS = 100_000
_STEPS = 16_000


class _Node:
    def __init__(self, i: int):
        self.i = i
        self.busy = 0.0
        self.done = 0
        self.links: list["_Node"] = []
        self.meta = {"jobs": 0}


def _process(node: _Node):
    k = 0
    while True:
        delay = 0.5 + ((node.i * 31 + k * 17) % 97) / 97.0
        node.busy += delay
        node.done += 1
        peer = node.links[k & 3]
        peer.meta["jobs"] = peer.meta.get("jobs", 0) + 1
        k += 1
        yield delay


def reference_loop() -> float:
    """Run the loop once; returns its result so nothing is optimised away."""
    nodes = [_Node(i) for i in range(_NODES)]
    for node in nodes:
        node.links = [nodes[(node.i * 7919 + j * 104729) % _NODES] for j in range(4)]
    total = 0.0
    for step in range(_STEPS):
        node = nodes[(step * 104729) % _NODES]
        for peer in node.links:
            total += peer.busy + peer.meta["jobs"]
    heap = [(0.0, i, _process(node)) for i, node in enumerate(nodes)]
    heapq.heapify(heap)
    seq = len(heap)
    now = 0.0
    for _ in range(_EVENTS):
        now, _, proc = heapq.heappop(heap)
        seq += 1
        heapq.heappush(heap, (now + next(proc), seq, proc))
    return now + total


def time_reference() -> float:
    """Wall seconds of one :func:`reference_loop`, after a collection."""
    gc.collect()
    t0 = time.perf_counter()
    reference_loop()
    return time.perf_counter() - t0
