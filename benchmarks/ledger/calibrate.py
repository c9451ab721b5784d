"""Reference kernel: how fast is this machine *right now*?

The box this benchmark was written on is a shared 2-core VM whose speed
drifts by +-20 % over minutes (identical work: 8.3 s, then 16.4 s), and
``time.process_time()`` drifts with it -- stolen cycles are billed to the
process.  Min-merging repeated passes removes short bursts but not a slow
phase that outlasts the whole run.

So every host time the ledger reports is **scaled to reference speed**:
between any two measured slices the pass times this fixed kernel -- the
interpreter-bound mix the simulator's hot path is made of (a heap of
tuples, generator resumes, dict and attribute traffic) -- and a slice that
ran while the kernel took 1.2x its nominal time is divided by 1.2.
Measured here on identical work units of ~50 ms: run-to-run spread
(quartile distance / median) 16-19 % raw, 2 % scaled.  A memory-bound
kernel (pointer chasing over 60 k objects) did *not* track the drift, so
the kernel deliberately stays cache-resident.

The kernel lives in the benchmark's own directory and touches nothing of
the program, so no change to the program can move the yardstick.
"""

from __future__ import annotations

import heapq
import time

#: What one ``sample()`` reads on the reference box when it is quiet.
#: Host times are reported as if the kernel always took exactly this.
NOMINAL_S = 0.0034
ITERATIONS = 8000
REPEATS = 3


class _Node:
    __slots__ = ("count", "peer")

    def __init__(self):
        self.count = 0
        self.peer = None


def _ticker(n: int):
    total = 0
    for i in range(n):
        total += yield i
    return total


def kernel(n: int = ITERATIONS) -> int:
    heap: list = []
    table: dict = {}
    a, b = _Node(), _Node()
    a.peer, b.peer = b, a
    resumed = _ticker(n)
    next(resumed)
    push, pop = heapq.heappush, heapq.heappop
    node = a
    for i in range(n):
        push(heap, ((i * 7919) % 1009, i, node))
        if i & 3 == 3:
            at, seq, who = pop(heap)
            who.count += 1
            table[seq & 255] = at
            node = who.peer
        try:
            resumed.send(i)
        except StopIteration:
            pass
    return len(heap) + len(table) + a.count


def sample() -> float:
    """CPU seconds of the kernel, best of ``REPEATS`` (noise only adds)."""
    best = float("inf")
    for _ in range(REPEATS):
        start = time.process_time()
        kernel()
        best = min(best, time.process_time() - start)
    return best


def to_reference_speed(seconds: float, *samples: float) -> float:
    """``seconds`` measured while ``sample()`` read ``samples`` (mean),
    scaled to what it would have been at nominal speed."""
    return seconds * NOMINAL_S * len(samples) / sum(samples)


def scale_slices(cpu, refs):
    """``cpu[i]`` ran between ``refs[i]`` and ``refs[i + 1]``."""
    return [to_reference_speed(c, refs[i], refs[i + 1]) for i, c in enumerate(cpu)]
