"""RPC layer between simulated hosts.

Walter clients talk to their local server via remote procedure calls
(paper §5.1), and servers talk to each other both via RPCs (the slow
commit's prepare/abort) and via one-way protocol messages (PROPAGATE,
DS-DURABLE, VISIBLE -- Fig 13).  Both styles are provided here; a
fan-out (a 2PC prepare round, a Paxos phase) is one :meth:`Host.ask_all`.

:class:`Host` is the base class for every networked component.  Subclasses
expose RPC methods named ``rpc_<method>`` and one-way handlers named
``on_<method>``; handlers may be plain functions or generators (which may
block on simulated I/O).  An RPC handler declares its CPU service time with
:func:`service_time`; :meth:`Host._serve` is the one place that charges it.
A handler runs inside a kernel callback and a process exists only while a
generator handler blocks (:class:`_Handler`).  An RPC handler that goes on
in a chain of kernel callbacks returns the :class:`~repro.sim.Event` the
chain completes, and the reply goes out inside the callback completing it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from types import GeneratorType
from typing import Any, Dict, Optional

from ..sim import Event, Kernel, Process
from .network import Network


class RpcError(Exception):
    """Base class for RPC failures."""


class RpcTimeout(RpcError):
    """The reply did not arrive within the caller's deadline."""


class RpcRemoteError(RpcError):
    """The remote handler raised; carries the remote error string."""


# The wire messages are slotted by hand (``dataclass(slots=True)`` needs
# Python 3.10), which is why each ``__init__`` is written out: a slot
# cannot have a class-level default.
@dataclass(init=False)
class RpcRequest:
    __slots__ = ("rpc_id", "method", "args", "reply_to", "span")

    rpc_id: int
    method: str
    args: Dict[str, Any]
    reply_to: str
    #: Deep-tracing span context: ``(tid, parent_seq)`` linking the
    #: handler's spans back to the caller's span graph, or None.
    span: Optional[tuple]

    def __init__(self, rpc_id, method, args, reply_to, span=None):
        self.rpc_id = rpc_id
        self.method = method
        self.args = args
        self.reply_to = reply_to
        self.span = span

    def __reduce__(self):
        # Constructor-args reduce: hash-seed-free bytes, portable across
        # processes (tests/net/test_determinism.py).
        return (RpcRequest, (self.rpc_id, self.method, self.args, self.reply_to, self.span))


@dataclass(init=False)
class RpcReply:
    __slots__ = ("rpc_id", "value", "error")

    rpc_id: int
    value: Any
    error: Optional[str]

    def __init__(self, rpc_id, value=None, error=None):
        self.rpc_id = rpc_id
        self.value = value
        self.error = error

    def __reduce__(self):
        return (RpcReply, (self.rpc_id, self.value, self.error))


@dataclass(init=False)
class Cast:
    """A one-way protocol message (no reply)."""

    __slots__ = ("method", "args", "src")

    method: str
    args: Dict[str, Any]
    src: str

    def __init__(self, method, args=None, src=""):
        self.method = method
        self.args = {} if args is None else args
        self.src = src

    def __reduce__(self):
        return (Cast, (self.method, self.args, self.src))


def _error_text(exc: Exception) -> str:
    return "%s: %s" % (type(exc).__name__, exc)


def service_time(cost):
    """Declare what serving an ``rpc_*`` handler costs at the host's CPU
    station: :meth:`Host._serve` books one ``cpu`` core for that long
    before it calls the handler.  ``cost`` names a field of the host's
    ``costs`` table, or is a function ``(host, **request_args) ->
    seconds`` when the time depends on the request."""

    def declare(handler):
        handler.service_time = cost
        return handler

    return declare


class Host:
    """A networked component: RPC client+server over one receive callable
    (:meth:`_on_message`, which the network calls inside each delivery
    event) and one deadline timer."""

    #: Default request/reply sizes in bytes when the caller does not say.
    DEFAULT_MSG_BYTES = 256
    #: The k-core CPU station (a :class:`~repro.sim.Resource` calendar) of hosts
    #: whose handlers declare a :func:`service_time`.
    cpu = None

    def __init__(self, kernel: Kernel, network: Network, site, name: str, takeover: bool = False):
        self.kernel = kernel
        self.network = network
        self.site = network.topology.site(site)
        self.address = name
        self.mailbox = network.register(name, self.site, takeover=takeover)
        self._pending: Dict[int, Event] = {}
        #: rpc_id -> (deadline, dst, method, timeout) of every outstanding
        #: call made with a timeout; one live kernel timer serves them all.
        self._deadlines: Dict[int, tuple] = {}
        #: When that timer fires (None: not armed); a heap entry for any
        #: other instant is a superseded one and is ignored.
        self._armed_at: Optional[float] = None
        self._next_rpc_id = 0
        self._running = False
        #: Bumped by each crash, which voids the requests booked before it.
        self._incarnation = 0
        self._children: list = []
        # Dead children are pruned when the list reaches this size; the
        # threshold then doubles with the surviving count so pruning is
        # amortized O(1) per spawn (it is count-based, so deterministic).
        self._prune_at = 32
        # getattr(self, "rpc_..."/"on_...") resolved once per method name;
        # an RPC entry is (handler, its declared service time or None).
        self._rpc_handlers: Dict[str, tuple] = {}
        self._cast_handlers: Dict[str, Any] = {}
        #: Fault-injection hook: RPC method -> sim time until which this
        #: host's *replies* to that method are suppressed (the request IS
        #: processed -- models a reply lost on the wire after the handler
        #: ran, e.g. a prepare that locked but whose YES never arrived).
        self._drop_reply_until: Dict[str, float] = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Handle what queued in the mailbox while this host was not
        running, in arrival order, then receive directly."""
        if self._running:
            return
        self._running = True
        mailbox = self.mailbox
        while mailbox:
            self._on_message(mailbox.popleft())
        self.network.attach(self.address, self._on_message)

    def stop(self) -> None:
        """Stop dispatching (used to model a host crash at the app level):
        messages queue in the mailbox again, outstanding calls fail."""
        self._running = False
        self.network.detach(self.address, self._on_message)
        for event in self._pending.values():
            if not event.triggered:
                event.fail(RpcTimeout("host %s stopped" % self.address))
        self._pending.clear()
        self._deadlines.clear()

    def crash(self) -> None:
        """Crash this host: stop dispatching, drop network traffic, void
        booked requests and kill in-flight handlers.  A crashed OS process
        does not keep executing, so work forked off a delivered message
        must not either -- only effects already handed to durable storage
        or the network survive the crash."""
        self.network.crash_host(self.address)
        self.stop()
        self._incarnation += 1
        children, self._children = self._children, []
        for proc in children:
            proc.interrupt("crashed")
        if self.cpu is not None:
            # Its bookings belonged to the requests just voided.
            self.cpu.reset()

    def spawn_child(self, gen, name: str = ""):
        """Spawn a process that dies with this host (see :meth:`crash`).

        The process absorbs the :class:`~repro.sim.Interrupt` a crash
        throws (``absorb_interrupt``), so killed handlers never surface
        as orphan failures."""
        return self._adopt(self.kernel.spawn(gen, name=name, absorb_interrupt=True))

    def _adopt(self, proc):
        if len(self._children) >= self._prune_at:
            self._children = [p for p in self._children if not p.done]
            self._prune_at = max(32, 2 * len(self._children))
        self._children.append(proc)
        return proc

    def _on_message(self, message) -> None:
        """The network's receiver for this host while it runs, called
        inside each delivery event.  An exception a cast handler raises
        propagates out of the event, and so out of ``Kernel.run``."""
        payload = message.payload
        # Exact-type dispatch: the three payload classes are final
        # (slotted dataclasses, never subclassed), and an identity
        # check is the cheapest test on this per-message path.
        cls = payload.__class__
        if cls is RpcRequest:
            self._serve(payload)
        elif cls is RpcReply:
            # A reply to a call that timed out (or died with stop()) finds
            # nothing pending and is dropped.  Otherwise the caller resumes
            # right here; nothing follows the wake, so whatever it does to
            # this host (new calls, stop) is safe.
            event = self._pending.pop(payload.rpc_id, None)
            if event is not None:
                self._deadlines.pop(payload.rpc_id, None)
                if payload.error is not None:
                    event.complete_now(exc=RpcRemoteError(payload.error))
                else:
                    event.complete_now(payload.value)
        elif cls is Cast:
            method = payload.method
            handler = self._cast_handlers.get(method)
            if handler is None:
                handler = getattr(self, "on_" + method, None)
                if handler is None:
                    raise RpcError("%s has no handler on_%s" % (self.address, method))
                self._cast_handlers[method] = handler
            result = handler(payload.src, **payload.args)
            if type(result) is GeneratorType:
                try:
                    target = result.send(None)
                except StopIteration:
                    return
                _Handler(self, result, target, None, ("on:%s.%s", (self.address, method)))
        else:
            raise RpcError("unexpected payload %r" % (payload,))

    def _serve(self, request: RpcRequest) -> None:
        """Serve a delivered request: in a kernel callback at the end of
        its CPU booking, or here if it declares no service time (DESIGN.md §10)."""
        if request.span is not None:
            self._on_rpc_span(request.method, request.span)
        try:
            handler, cost = self._rpc_handlers[request.method]
        except KeyError:
            handler = getattr(self, "rpc_" + request.method, None)
            cost = getattr(handler, "service_time", None)
            if handler is not None:
                self._rpc_handlers[request.method] = (handler, cost)
        if handler is None:
            error = "no such method %r on %s" % (request.method, self.address)
            return self._reply(request, None, error)
        if cost is None:
            return self._handle(request, handler, self._incarnation)
        # The station (DESIGN.md §5): book the k-core calendar FIFO for
        # the service time, then serve.  A crash voids the booking.
        try:
            if self.cpu is None:
                raise RpcError("rpc_%s declares a service time but %s has no cpu station"
                               % (request.method, self.address))
            if cost.__class__ is str:
                seconds = getattr(self.costs, cost)
            else:
                seconds = cost(self, **request.args)
        except Exception as exc:  # noqa: BLE001 - shipped to caller
            return self._reply(request, None, _error_text(exc))
        end = self.cpu.book(seconds)
        self.kernel.call_at(end, self._handle, request, handler, self._incarnation)

    def _handle(self, request: RpcRequest, handler, incarnation: int) -> None:
        """Run an RPC handler and reply, inside the current kernel event;
        a generator that blocks becomes a :class:`_Handler` instead."""
        if incarnation != self._incarnation:
            return  # booked before a crash: the request died with the host
        error = None
        try:
            value = handler(**request.args)
            if type(value) is GeneratorType:
                # StopIteration: the handler returned at its first step.
                target = value.send(None)
                name = ("serve:%s.%s", (self.address, request.method))
                _Handler(self, value, target, request, name)
                return
            if type(value) is Event:
                value._subscribe(self.kernel, partial(self._reply_done, request, incarnation))
                return
        except StopIteration as stop:
            value = stop.value
        except Exception as exc:  # noqa: BLE001 - shipped to caller
            value = None
            error = _error_text(exc)
        self._reply(request, value, error)

    def _reply_done(self, request: RpcRequest, incarnation: int, value, exc) -> None:
        """Reply with what a handler's event completed with, unless the
        host crashed meanwhile."""
        if incarnation == self._incarnation:
            self._reply(request, value, None if exc is None else _error_text(exc))

    def _reply(self, request: RpcRequest, value, error: Optional[str]) -> None:
        if self._drop_reply_until:
            until = self._drop_reply_until.get(request.method)
            if until is not None:
                if self.kernel.now < until:
                    self._reply_dropped(request.method)
                    return
                del self._drop_reply_until[request.method]
        reply = RpcReply(request.rpc_id, value, error)
        self.network.send(self.address, request.reply_to, reply, size_bytes=self.DEFAULT_MSG_BYTES)

    def _on_rpc_span(self, method: str, span_ctx: tuple) -> None:
        """Observability hook: a request carrying span context arrived.
        Hosts with a tracer override this to record the receive edge."""

    def drop_replies(self, method: str, duration: float) -> None:
        """Suppress replies to ``method`` for ``duration`` sim-seconds
        (chaos fault injection; requests are still fully processed)."""
        self._drop_reply_until[method] = self.kernel.now + duration

    def _reply_dropped(self, method: str) -> None:
        """Observability hook; subclasses may count dropped replies."""

    # ------------------------------------------------------------------
    # Client side
    # ------------------------------------------------------------------
    def call(self, dst: str, method: str, **kwargs):
        """Generator: :meth:`send_request`, waited for.  Use as ``value =
        yield from self.call(dst, "tx_read", ...)``."""
        return (yield self.send_request(dst, method, **kwargs))

    def ask_all(self, requests, timeout: Optional[float] = None,
                span: Optional[tuple] = None) -> Event:
        """Send each ``(dst, method, args)`` of ``requests``; return an
        event that completes with one result per request, in request
        order: the reply value, or the :class:`RpcError` it failed with.

        No process: the requests go out in one ready turn and the event
        completes one turn after the last answer, where a process per
        request joined by ``AllOf`` resumed its asker (DESIGN.md §10)."""
        done = Event(self.kernel, ("ask_all:%s", (self.address,)))
        if requests:
            self.kernel.call_soon(self._ask_all, requests, timeout, span, done)
        else:
            done.trigger([])
        return done

    def _ask_all(self, requests, timeout, span, done: Event) -> None:
        kernel = self.kernel
        results = [None] * len(requests)
        left = len(requests)
        for index, (dst, method, args) in enumerate(requests):
            def record(value, exc, index=index):
                nonlocal left
                results[index] = value if exc is None else exc
                left -= 1
                if not left:
                    kernel.call_soon(done.complete_now, results)

            event = self.send_request(dst, method, timeout=timeout, span=span, **args)
            event._subscribe(kernel, record)

    def send_request(
        self,
        dst: str,
        method: str,
        size_bytes: Optional[int] = None,
        timeout: Optional[float] = None,
        span: Optional[tuple] = None,
        **args,
    ) -> Event:
        """Send a request for ``method`` to host ``dst``; return the event
        its reply completes, which fails with :class:`RpcTimeout` if no
        reply arrives within ``timeout`` simulated seconds and with
        :class:`RpcRemoteError` if the remote handler raised."""
        self._next_rpc_id += 1
        rpc_id = self._next_rpc_id
        event = Event(self.kernel, ("rpc:%s->%s.%s", (self.address, dst, method)))
        self._pending[rpc_id] = event
        request = RpcRequest(
            rpc_id=rpc_id, method=method, args=args, reply_to=self.address, span=span
        )
        self.network.send(
            self.address, dst, request, size_bytes=size_bytes or self.DEFAULT_MSG_BYTES
        )
        if timeout is not None:
            deadline = self.kernel.now + timeout
            self._deadlines[rpc_id] = (deadline, dst, method, timeout)
            if self._armed_at is None or deadline < self._armed_at:
                self._arm(deadline)
        return event

    def _arm(self, at: float) -> None:
        """Make ``at`` the instant the host's live deadline timer fires.
        A heap entry cannot be withdrawn: the one this supersedes (if
        any) no longer matches ``_armed_at`` when it comes due."""
        self._armed_at = at
        self.kernel.call_at(at, self._on_deadline, at)

    def _on_deadline(self, at: float) -> None:
        """Fail every call whose own ``t_call + timeout`` has come, then
        re-arm at the earliest deadline left (one host mixes timeouts, so
        deadlines are not in call order; the scan runs about once per
        timeout period over the few calls in flight).  ``Event.fail``
        wakes the callers *after* this returns, so none of them can call
        again -- and arm -- before the re-arm has read the table."""
        if at != self._armed_at:
            return
        self._armed_at = None
        expired = [rpc_id for rpc_id, entry in self._deadlines.items() if entry[0] <= at]
        for rpc_id in expired:
            _, dst, method, timeout = self._deadlines.pop(rpc_id)
            text = "rpc %s.%s from %s timed out after %gs" % (dst, method, self.address, timeout)
            self._pending.pop(rpc_id).fail(RpcTimeout(text))
        if self._deadlines:
            self._arm(min(entry[0] for entry in self._deadlines.values()))

    def cast(self, dst: str, method: str, size_bytes: Optional[int] = None, **args) -> None:
        """Fire-and-forget protocol message to ``dst``."""
        self.network.send(
            self.address,
            dst,
            Cast(method=method, args=args, src=self.address),
            size_bytes=size_bytes or self.DEFAULT_MSG_BYTES,
        )


class _Handler(Process):
    """A handler that blocked: a child process of its host that finishes
    the handler's generator, already suspended on ``target``, then replies
    to ``request`` (None for a cast).  A crash interrupts it: its
    ``finally`` blocks run and it sends nothing."""

    __slots__ = ("_host", "_request")

    def __init__(self, host: Host, gen, target, request: Optional[RpcRequest], name):
        Process.__init__(self, host.kernel, gen, name, absorb_interrupt=True)
        self._host = host
        self._request = request
        target._subscribe(host.kernel, self._step_cb)
        host._adopt(self)

    def _finish(self, value, exc) -> None:
        host, request = self._host, self._request
        self._host = self._request = None
        if request is None or not (exc is None or isinstance(exc, Exception)):
            Process._finish(self, value, exc)
            return
        Process._finish(self, value, None)
        if not self._interrupted:
            host._reply(request, value, None if exc is None else _error_text(exc))
