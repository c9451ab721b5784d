"""Unit tests for simulation synchronization primitives."""

from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Event, Kernel, Lock, Resource, SimError


def test_lock_mutual_exclusion_and_fifo():
    kernel = Kernel()
    lock = Lock(kernel)
    trace = []

    def worker(tag, hold):
        yield lock.acquire()
        trace.append(("in", tag, kernel.now))
        yield kernel.timeout(hold)
        trace.append(("out", tag, kernel.now))
        lock.release()

    kernel.spawn(worker("a", 2.0))
    kernel.spawn(worker("b", 1.0))
    kernel.spawn(worker("c", 1.0))
    kernel.run()
    assert trace == [
        ("in", "a", 0.0),
        ("out", "a", 2.0),
        ("in", "b", 2.0),
        ("out", "b", 3.0),
        ("in", "c", 3.0),
        ("out", "c", 4.0),
    ]


def test_lock_release_unheld_raises():
    kernel = Kernel()
    lock = Lock(kernel)
    with pytest.raises(SimError):
        lock.release()


class ReferenceResource:
    """The grant-then-timeout station :class:`Resource` replaced: a waiter
    queue, one grant event per request, then a service timeout."""

    def __init__(self, kernel, capacity):
        self.kernel = kernel
        self.capacity = capacity
        self._in_use = 0
        self._waiters = deque()

    def acquire(self):
        event = Event(self.kernel)
        if self._in_use < self.capacity and not self._waiters:
            self._in_use += 1
            event.trigger(None)
        else:
            self._waiters.append(event)
        return event

    def release(self):
        self._in_use -= 1
        if self._waiters:
            self._in_use += 1
            self._waiters.popleft().trigger(None)

    def use(self, duration):
        yield self.acquire()
        try:
            yield self.kernel.timeout(duration)
        finally:
            self.release()


def test_resource_capacity_two_admits_two():
    kernel = Kernel()
    res = Resource(kernel, capacity=2)
    finish_times = {}

    def worker(tag):
        yield res.hold(10.0)
        finish_times[tag] = kernel.now

    for tag in ["a", "b", "c"]:
        kernel.spawn(worker(tag))
    kernel.run()
    assert finish_times == {"a": 10.0, "b": 10.0, "c": 20.0}


def test_resource_hold_is_one_event():
    kernel = Kernel()
    res = Resource(kernel, capacity=1)

    def worker():
        yield res.hold(5.0)

    kernel.spawn(worker())
    kernel.spawn(worker())
    kernel.run()
    # Two process starts and two service ends; no grant events.
    assert kernel.events_executed == 4 and kernel.now == 10.0


def test_resource_in_use_and_busy_time():
    kernel = Kernel()
    res = Resource(kernel, capacity=2)

    def worker(seconds):
        yield res.hold(seconds)

    def observer():
        yield kernel.timeout(1.0)
        first = res.in_use
        yield kernel.timeout(3.0)
        return (first, res.in_use)

    for seconds in (5.0, 2.0, 1.0):
        kernel.spawn(worker(seconds))
    obs = kernel.spawn(observer())
    kernel.run()
    # At 1 both cores are busy (5 s, then 2 s), at 4 only the first is.
    assert obs.value == (2, 1)
    assert res.total_busy_time == 8.0
    assert res.in_use == 0


def test_resource_reset_frees_every_core():
    kernel = Kernel()
    res = Resource(kernel, capacity=1)
    res.hold(100.0)
    res.hold(100.0)
    assert res.in_use == 1
    res.reset()
    assert res.in_use == 0
    done = []

    def worker():
        yield res.hold(1.0)
        done.append(kernel.now)

    kernel.spawn(worker())
    kernel.run(until=50.0)
    assert done == [1.0]


def test_resource_invalid_capacity():
    kernel = Kernel()
    with pytest.raises(ValueError):
        Resource(kernel, capacity=0)


_instants = st.sampled_from([0.0, 0.0, 0.1, 0.25, 0.3, 1.0, 1.7])


@given(
    capacity=st.integers(1, 4),
    requests=st.lists(st.tuples(_instants, _instants), min_size=1, max_size=24),
)
@settings(max_examples=300, deadline=None)
def test_hold_matches_the_grant_then_timeout_station(capacity, requests):
    """Same completion instants (``==``) and the same service order as the
    station it replaced, for arrivals that tie and durations that are 0."""

    def serve(make_station, charge):
        kernel = Kernel()
        station = make_station(kernel, capacity)
        done = []

        def request(tag, arrival, seconds):
            yield kernel.timeout(arrival)
            yield from charge(station, seconds)
            done.append((tag, kernel.now))

        for tag, (arrival, seconds) in enumerate(requests):
            kernel.spawn(request(tag, arrival, seconds))
        kernel.run()
        return done

    def hold(station, seconds):
        yield station.hold(seconds)

    calendar = serve(Resource, hold)
    reference = serve(ReferenceResource, ReferenceResource.use)
    assert calendar == reference
