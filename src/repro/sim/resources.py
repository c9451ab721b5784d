"""Synchronization primitives for simulated processes.

These are the building blocks the Walter server uses to model contention:
the server CPU is a :class:`Resource` booked for a service time per operation,
and the commit path serializes on a :class:`Lock` (the paper notes commit
throughput is bounded by "a highly contended lock" inside the server).

All primitives are FIFO-fair: waiters are served in arrival order, which
keeps runs deterministic.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Deque, Generator

from .kernel import At, Event, Kernel, SimError


class Lock:
    """A FIFO mutex for simulated processes.

    Usage::

        yield lock.acquire()
        try:
            ...
        finally:
            lock.release()
    """

    def __init__(self, kernel: Kernel, name: str = ""):
        self.kernel = kernel
        self.name = name
        self._event_name = "lock:%s" % name
        self._held = False
        self._waiters: Deque[Event] = deque()

    @property
    def held(self) -> bool:
        return self._held

    def acquire(self) -> Event:
        event = Event(self.kernel, self._event_name)
        if not self._held and not self._waiters:
            self._held = True
            event.trigger(None)
        else:
            self._waiters.append(event)
        return event

    def release(self) -> None:
        if not self._held:
            raise SimError("release of unheld lock %r" % (self.name,))
        if self._waiters:
            self._waiters.popleft().trigger(None)
        else:
            self._held = False


class Resource:
    """A FIFO k-server station kept as a calendar (models server CPU cores).

    Every holder knows its service time when it arrives, so a request needs
    no grant event: :meth:`hold` books the core that frees first, at
    ``max(now, free_at)``, and returns one timer for the instant its
    service ends.  That instant is the float a grant-then-timeout queue
    produces (the core's previous end plus the service time), so FIFO
    service order and every completion time are those of a waiter queue.
    A booking cannot be withdrawn: a holder that dies frees its core only
    through :meth:`reset`, which a crashing host calls.
    """

    __slots__ = ("kernel", "capacity", "name", "_free_at", "total_busy_time")

    def __init__(self, kernel: Kernel, capacity: int, name: str = ""):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.kernel = kernel
        self.capacity = capacity
        self.name = name
        # Min-heap of the instant each core next falls idle.
        self._free_at = [0.0] * capacity
        #: Core-seconds booked so far.
        self.total_busy_time = 0.0

    @property
    def in_use(self) -> int:
        """Cores busy now (booked beyond the current instant)."""
        now = self.kernel.now
        return sum(1 for at in self._free_at if at > now)

    def book(self, seconds: float) -> float:
        """Book one core for ``seconds``; return the instant the service
        ends."""
        free_at = self._free_at
        start = free_at[0]
        now = self.kernel.now
        if start < now:
            start = now
        end = start + seconds
        heapq.heapreplace(free_at, end)
        self.total_busy_time += seconds
        return end

    def hold(self, seconds: float) -> At:
        """:meth:`book`, as a timer to yield to wait until the service
        ends."""
        return At(self.book(seconds))

    def use(self, seconds: float) -> Generator:
        """Generator form of :meth:`hold`, for ``yield from`` callers."""
        yield self.hold(seconds)

    def reset(self) -> None:
        """Free every core now: the holders died (a host crash)."""
        self._free_at = [0.0] * self.capacity
