"""Deterministic discrete-event simulation kernel.

The kernel is the substrate on which every distributed component of the
reproduction runs: Walter servers, clients, recovery coordinators, the
network, and the disk model are all simulated processes scheduled here.

Processes are Python generators that ``yield`` *waitables*:

* :class:`Timeout` -- resume after a simulated delay,
* :class:`At` -- resume at an absolute simulated instant,
* :class:`Event` -- resume when another process triggers the event,
* :class:`Process` -- resume when another process finishes (a join); the
  value of the ``yield`` expression is the joined process's return value.

The kernel is strictly deterministic: events scheduled for the same
simulated time fire in the order they were scheduled (a monotonic sequence
number breaks ties), so a run with a fixed seed is bit-for-bit repeatable.
This property is load-bearing for the test suite, which asserts exact
transaction orderings, and for the benchmark harness, whose numbers must be
stable across runs.
"""

from __future__ import annotations

import gc
import heapq
from collections import deque
from typing import Any, Callable, Generator, Iterable, List, Optional, Tuple, Union

#: Event/process names are either plain strings or a ``(fmt, args)`` pair
#: formatted lazily on first access -- hot paths create millions of events
#: whose names are only ever read by tracing and error messages.
Name = Union[str, Tuple[str, tuple]]


class gc_paused:
    """Pause CPython's cyclic collector across a section of code.

    ``Kernel.run()`` already pauses the collector while the event loop
    executes (see :class:`Kernel`), but harnesses that interleave many
    short runs with world construction -- the chaos experiments run, spawn,
    run again, then settle -- pay for a full young-generation scan at every
    run boundary.  Wrapping the whole experiment keeps the collector off
    across those boundaries.  The prior GC state is restored on exit, and
    nesting is safe (the inner pause is a no-op).

    A plain class rather than ``@contextmanager``: the generator-based
    protocol costs a few hundred microseconds per use, which shows up
    when a harness enters it once per (short) experiment.
    """

    __slots__ = ("_was_enabled",)

    def __enter__(self) -> None:
        self._was_enabled = gc.isenabled()
        if self._was_enabled:
            gc.disable()

    def __exit__(self, *exc_info) -> None:
        if self._was_enabled:
            gc.enable()


class SimError(Exception):
    """Base class for simulation kernel errors."""


class Interrupt(SimError):
    """Raised inside a process that another process interrupted."""

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Waitable:
    """Something a process may ``yield`` on.

    Subclasses implement :meth:`_subscribe`, which registers a callback to
    be invoked (exactly once) with ``(value, exception)`` when the waitable
    completes.  If the waitable has already completed, the callback fires on
    the next kernel step at the current simulated time.
    """

    def _subscribe(self, kernel: "Kernel", callback: Callable[[Any, Optional[BaseException]], None]) -> None:
        raise NotImplementedError


class Timeout(Waitable):
    """Resume the yielding process after ``delay`` simulated seconds."""

    __slots__ = ("delay", "value")

    def __init__(self, delay: float, value: Any = None):
        if delay < 0:
            raise ValueError("timeout delay must be >= 0, got %r" % (delay,))
        self.delay = delay
        self.value = value

    def _subscribe(self, kernel: "Kernel", callback) -> None:
        # call_after inlined (one fewer call per timeout); __init__
        # already rejected negative delays, so no past-scheduling check.
        delay = self.delay
        kernel._seq += 1
        if delay == 0.0:
            kernel._ready.append((kernel.now, kernel._seq, callback, (self.value, None)))
        else:
            heapq.heappush(
                kernel._heap, (kernel.now + delay, kernel._seq, callback, (self.value, None))
            )


class At(Waitable):
    """Resume the yielding process at the absolute simulated instant
    ``time`` (not before now): a timer whose end was computed ahead, so
    no ``now + delay`` rounding moves it."""

    __slots__ = ("time",)

    def __init__(self, time: float):
        self.time = time

    def _subscribe(self, kernel: "Kernel", callback) -> None:
        time = self.time
        kernel._seq += 1
        if time == kernel.now:
            kernel._ready.append((time, kernel._seq, callback, (None, None)))
        else:
            heapq.heappush(kernel._heap, (time, kernel._seq, callback, (None, None)))


class Event(Waitable):
    """A one-shot event that processes can wait on.

    ``trigger(value)`` wakes every waiter with ``value``; ``fail(exc)``
    raises ``exc`` inside every waiter.  Triggering twice is an error --
    distributed-protocol code that may race to complete an event should use
    :meth:`trigger_once`.
    """

    __slots__ = ("kernel", "_done", "_value", "_exc", "_callbacks", "_name")

    def __init__(self, kernel: "Kernel", name: Name = ""):
        self.kernel = kernel
        self._name = name
        self._done = False
        # _value/_exc are only assigned on completion (both trigger and
        # fail set both), and only read after it -- hot paths create
        # millions of events, so __init__ stays minimal.  _callbacks is
        # lazily allocated for the same reason: most events are triggered
        # with zero or one waiter.
        self._callbacks: Optional[List[Callable]] = None

    @property
    def name(self) -> str:
        n = self._name
        if type(n) is tuple:
            n = self._name = n[0] % n[1]
        return n

    @property
    def triggered(self) -> bool:
        return self._done

    @property
    def value(self) -> Any:
        if not self._done:
            raise SimError("event %r not yet triggered" % (self.name,))
        return self._value

    def trigger(self, value: Any = None) -> None:
        if self._done:
            raise SimError("event %r triggered twice" % (self.name,))
        self._done = True
        self._value = value
        self._exc = None
        # _flush with call_soon inlined: trigger fires once per event on
        # the hot path, and each waiter wake-up is one deque append.
        callbacks = self._callbacks
        if callbacks is not None:
            self._callbacks = None
            kernel = self.kernel
            now = kernel.now
            ready = kernel._ready
            seq = kernel._seq
            for cb in callbacks:
                seq += 1
                ready.append((now, seq, cb, (value, None)))
            kernel._seq = seq

    def trigger_once(self, value: Any = None) -> bool:
        """Trigger if not already done; return True if this call won."""
        if self._done:
            return False
        self.trigger(value)
        return True

    def fail(self, exc: BaseException) -> None:
        if self._done:
            raise SimError("event %r triggered twice" % (self.name,))
        self._done = True
        self._value = None
        self._exc = exc
        self._flush()

    def _flush(self) -> None:
        callbacks = self._callbacks
        if callbacks is not None:
            self._callbacks = None
            call_soon = self.kernel.call_soon
            for cb in callbacks:
                call_soon(cb, self._value, self._exc)

    def complete_now(self, value: Any = None, exc: Optional[BaseException] = None) -> None:
        """:meth:`trigger` (or, with ``exc``, :meth:`fail`) that invokes the
        waiters inside the caller's kernel event, in subscription order,
        instead of through one ready-queue entry each.  For a completion
        that is the last act of its event (a delivered reply completing
        an RPC): same instant, one scheduler hop fewer.  A woken process
        runs up to its next ``yield`` before this returns, so the caller
        must tolerate re-entry."""
        if self._done:
            raise SimError("event %r triggered twice" % (self.name,))
        self._done = True
        self._value = value
        self._exc = exc
        callbacks = self._callbacks
        if callbacks is not None:
            self._callbacks = None
            for cb in callbacks:
                cb(value, exc)

    def _subscribe(self, kernel: "Kernel", callback) -> None:
        if self._done:
            # call_soon inlined: yielding an already-completed event is
            # the common case on lock/resource fast paths.
            kernel._seq += 1
            kernel._ready.append((kernel.now, kernel._seq, callback, (self._value, self._exc)))
        elif self._callbacks is None:
            self._callbacks = [callback]
        else:
            self._callbacks.append(callback)


class AllOf(Waitable):
    """Completes when every child waitable completes; value is the list of
    child values in order.  The first child failure fails the whole group."""

    def __init__(self, children: Iterable[Waitable]):
        self.children = list(children)

    def _subscribe(self, kernel: "Kernel", callback) -> None:
        children = self.children
        if not children:
            kernel.call_soon(callback, [], None)
            return
        results: List[Any] = [None] * len(children)
        # state = [pending, failed]; a list cell is cheaper than a dict.
        state = [len(children), False]

        def make_child_cb(index: int):
            def child_cb(value, exc):
                if state[1]:
                    return
                if exc is not None:
                    state[1] = True
                    callback(None, exc)
                    return
                results[index] = value
                state[0] -= 1
                if state[0] == 0:
                    callback(results, None)

            return child_cb

        for i, child in enumerate(children):
            child._subscribe(kernel, make_child_cb(i))


class Process(Waitable):
    """A running simulated process wrapping a generator.

    Yield a Process to join it.  ``interrupt()`` throws :class:`Interrupt`
    into the generator at the current simulated time.
    """

    __slots__ = (
        "kernel",
        "_name",
        "_gen",
        "_send",
        "_step_cb",
        "_done",
        "_value",
        "_exc",
        "_joiners",
        "_interrupted",
        "_absorb_interrupt",
    )

    def __init__(
        self,
        kernel: "Kernel",
        gen: Generator,
        name: Name = "",
        absorb_interrupt: bool = False,
    ):
        self.kernel = kernel
        self._name = name or getattr(gen, "__name__", "process")
        self._gen = gen
        # Bound-method caches: _step runs once per resume on every process
        # in the system, so the attribute lookups are paid millions of
        # times per benchmark run.  gen.throw is NOT cached -- exceptions
        # are rare, and binding it here would cost every spawn.
        self._send = gen.send
        self._step_cb = self._step
        self._done = False
        self._value: Any = None
        self._exc: Optional[BaseException] = None
        self._joiners: Optional[List[Callable]] = None
        self._interrupted = False
        # An interrupted process normally finishes with the Interrupt as
        # its exception; with absorb_interrupt it finishes cleanly with
        # value None instead (the behaviour a ``try/except Interrupt``
        # wrapper generator would give, without the extra frame on every
        # resume).
        self._absorb_interrupt = absorb_interrupt

    @property
    def name(self) -> str:
        n = self._name
        if type(n) is tuple:
            n = self._name = n[0] % n[1]
        return n

    @property
    def done(self) -> bool:
        return self._done

    @property
    def value(self) -> Any:
        if not self._done:
            raise SimError("process %r still running" % (self.name,))
        if self._exc is not None:
            raise self._exc
        return self._value

    def interrupt(self, cause: Any = None) -> None:
        """Throw Interrupt into the process on the next kernel step."""
        if self._done:
            return
        self._interrupted = True
        self.kernel.call_soon(self._step_cb, None, Interrupt(cause))

    def _start(self) -> None:
        # call_soon inlined: one fewer call per spawn.
        kernel = self.kernel
        kernel._seq += 1
        kernel._ready.append((kernel.now, kernel._seq, self._step_cb, (None, None)))

    def _step(self, value: Any, exc: Optional[BaseException]) -> None:
        if self._done:
            return
        try:
            if exc is not None:
                target = self._gen.throw(exc)
            else:
                target = self._send(value)
        except StopIteration as stop:
            self._finish(stop.value, None)
            return
        except BaseException as err:  # noqa: BLE001 - propagated to joiners
            # A thrown exception that came back out names this frame in
            # its traceback: unbind it here, or the two form a cycle.
            exc = None
            if self._absorb_interrupt and isinstance(err, Interrupt):
                self._finish(None, None)
            else:
                self._finish(None, err)
            return
        # EAFP dispatch: anything with a _subscribe hook is treated as a
        # Waitable (exceptions are zero-cost until raised on 3.11+, and
        # this path runs once per process resume).
        try:
            subscribe = target._subscribe
        except AttributeError:
            self._finish(
                None,
                SimError(
                    "process %r yielded %r, which is not a Waitable"
                    % (self.name, target)
                ),
            )
            return
        subscribe(self.kernel, self._step_cb)

    def _finish(self, value: Any, exc: Optional[BaseException]) -> None:
        self._done = True
        self._value = value
        self._exc = exc
        # Break the cycle through the bound-method cache: run() pauses
        # the cyclic collector, so a finished process must die by
        # refcount.  Nothing steps or interrupts a done process.
        self._step_cb = None
        joiners = self._joiners
        self._joiners = None
        if not joiners:
            if exc is not None:
                self.kernel._report_orphan_failure(self, exc)
            return
        kernel = self.kernel
        now = kernel.now
        ready = kernel._ready
        seq = kernel._seq
        for cb in joiners:
            seq += 1
            ready.append((now, seq, cb, (value, exc)))
        kernel._seq = seq

    def _subscribe(self, kernel: "Kernel", callback) -> None:
        if self._done:
            kernel._seq += 1
            kernel._ready.append((kernel.now, kernel._seq, callback, (self._value, self._exc)))
        elif self._joiners is None:
            self._joiners = [callback]
        else:
            self._joiners.append(callback)

    def __repr__(self) -> str:
        state = "done" if self._done else "running"
        return "<Process %s (%s)>" % (self.name, state)


class Kernel:
    """The discrete-event scheduler.

    Time is a float in simulated seconds starting at 0.  ``run()`` executes
    events in (time, insertion-order) order until the queue drains, a time
    limit passes, or an orphan process failure surfaces.
    """

    def __init__(self, pause_gc: bool = True):
        #: Current simulated time.  A plain attribute, not a property:
        #: every component reads ``kernel.now`` on its hot path, and the
        #: descriptor call was measurable at millions of reads per run.
        #: Only ``run()`` and the schedulers write it.
        self.now = 0.0
        self._seq = 0
        #: Pause CPython's cyclic collector while ``run()`` executes.  The
        #: simulation's steady state produces no reference cycles -- a
        #: finished ``Process`` drops its own bound-method cache, pinned
        #: by tests/sim/test_no_cyclic_garbage.py -- so cleanup happens by
        #: refcounting and the collector's heap scans are pure overhead
        #: (over 40%% of wall time on the larger scenarios).  What is left
        #: is O(failures): an exception delivered through a failed event
        #: carries a traceback whose frame names that event.  GC state is
        #: saved and restored around ``run()``, so callers that rely on
        #: the collector between runs are unaffected.
        self.pause_gc = pause_gc
        self._heap: List = []
        # Fast lane for zero-delay callbacks.  Entries share the heap's
        # (time, seq, fn, args) shape; because they are appended at the
        # current (non-decreasing) time with a monotonic seq, the deque
        # is always sorted by (time, seq), and run() merges the two
        # queues by comparing heads -- firing order is bit-for-bit the
        # order a heap-only scheduler would produce.
        self._ready: deque = deque()
        self._orphan_failures: List = []
        #: Total events executed by ``run()``.
        self.events_executed = 0

    def call_soon(self, fn: Callable, *args) -> None:
        """Schedule ``fn`` at the current simulated time (zero delay)."""
        self._seq += 1
        self._ready.append((self.now, self._seq, fn, args))

    def call_after(self, delay: float, fn: Callable, *args) -> None:
        if delay == 0.0:
            self._seq += 1
            self._ready.append((self.now, self._seq, fn, args))
            return
        time = self.now + delay
        if time < self.now:
            raise SimError(
                "cannot schedule in the past (%r < %r)" % (time, self.now)
            )
        self._seq += 1
        heapq.heappush(self._heap, (time, self._seq, fn, args))

    def call_at(self, time: float, fn: Callable, *args) -> None:
        if time < self.now:
            raise SimError("cannot schedule in the past (%r < %r)" % (time, self.now))
        self._seq += 1
        heapq.heappush(self._heap, (time, self._seq, fn, args))

    def spawn(
        self, gen: Generator, name: Name = "", absorb_interrupt: bool = False
    ) -> Process:
        proc = Process(self, gen, name=name, absorb_interrupt=absorb_interrupt)
        proc._start()
        return proc

    def event(self, name: Name = "") -> Event:
        return Event(self, name=name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(delay, value)

    def _report_orphan_failure(self, proc: Process, exc: BaseException) -> None:
        self._orphan_failures.append((proc, exc))

    def run(
        self,
        until: Optional[float] = None,
        stop_when: Optional[Callable[[], bool]] = None,
    ) -> float:
        """Run until the event queue drains, simulated time reaches
        ``until``, or ``stop_when()`` becomes true (checked between events).

        Returns the simulated time at which the run stopped.  An exception
        escaping a process that nobody joined is re-raised here -- silent
        failure of a server process would otherwise invalidate benchmarks.
        """
        heap = self._heap
        ready = self._ready
        heappop = heapq.heappop
        orphans = self._orphan_failures
        executed = 0
        reenable_gc = self.pause_gc and gc.isenabled()
        if reenable_gc:
            gc.disable()
        try:
            while ready or heap:
                if stop_when is not None and stop_when():
                    return self.now
                # Merge the two queues: seqs are unique, so tuple
                # comparison never reaches the (uncomparable) fn field.
                if not ready or (heap and heap[0] < ready[0]):
                    entry = heap[0]
                    if until is not None and entry[0] > until:
                        self.now = until
                        break
                    heappop(heap)
                else:
                    entry = ready[0]
                    if until is not None and entry[0] > until:
                        self.now = until
                        break
                    ready.popleft()
                self.now = entry[0]
                executed += 1
                entry[2](*entry[3])
                if orphans:
                    _proc, exc = orphans[0]
                    raise exc
            else:
                if until is not None and until > self.now and (
                    stop_when is None or not stop_when()
                ):
                    self.now = until
        finally:
            self.events_executed += executed
            if reenable_gc:
                gc.enable()
        return self.now

    def run_process(self, gen: Generator, name: str = "", until: Optional[float] = None) -> Any:
        """Spawn ``gen`` and run just until it completes; return its value.

        The world stops at the completion of this process -- background
        activity (e.g. asynchronous propagation) scheduled after that
        moment stays queued, so tests can observe intermediate states.
        Raises if the process did not finish by ``until``.
        """
        proc = self.spawn(gen, name=name)
        self.run(until=until, stop_when=lambda: proc.done)
        if not proc.done:
            raise SimError("process %r did not finish by t=%r" % (proc.name, until))
        return proc.value
