"""Message-level network simulation.

Hosts register under a string address; :meth:`Network.send` hands a
message to the address's receiver -- a started :class:`~repro.net.Host`,
or the mailbox ``register`` returned -- after the topology's one-way
latency, a small jitter, and a serialization delay proportional to
message size over the pairwise bandwidth.  Cross-site links also enforce
the bandwidth cap as a shared FIFO pipe per (src-site, dst-site) pair,
which is what produces the paper's batched-propagation behaviour under
load.

Fault injection (partitions, crashed hosts, message loss) lives here so
that every protocol in the repository is exercised against the same
failure model.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, Optional, Set, Tuple

from ..obs import CounterView, MetricsRegistry
from ..sim import Kernel, RandomStreams
from .topology import Site, Topology


@dataclass(init=False)
class Message:
    """An addressed message in flight or delivered.  Slotted by hand
    (``dataclass(slots=True)`` needs Python 3.10), hence the written
    ``__init__``: a slot cannot have a class-level default."""

    __slots__ = ("src", "dst", "payload", "size_bytes", "sent_at", "delivered_at")

    src: str
    dst: str
    payload: Any
    size_bytes: int
    sent_at: float
    delivered_at: Optional[float]

    def __init__(self, src, dst, payload, size_bytes, sent_at, delivered_at=None):
        self.src = src
        self.dst = dst
        self.payload = payload
        self.size_bytes = size_bytes
        self.sent_at = sent_at
        self.delivered_at = delivered_at


class Route:
    """Everything :meth:`Network.send` needs about one directed site pair,
    resolved once: path latency and bandwidth, the link's jitter/loss
    draw (bound whatever the rates, since chaos raises ``loss_rate``
    mid-run), when its FIFO pipe is next free, and the per-site / per-link
    counter handles.
    """

    __slots__ = ("src_id", "dst_id", "link", "latency", "bandwidth", "random",
                 "free_at", "sent", "delivered", "bytes")

    def __init__(self, src_id: int, dst_id: int, latency: float, bandwidth: float,
                 random, registry: MetricsRegistry):
        self.src_id = src_id
        self.dst_id = dst_id
        self.link = (src_id, dst_id)
        self.latency = latency
        self.bandwidth = bandwidth
        self.random = random
        self.free_at = 0.0
        self.sent = registry.counter("net.sent", site=src_id)
        self.delivered = registry.counter("net.delivered", site=dst_id)
        #: Bytes are counted on cross-site links only.
        self.bytes = (
            registry.counter("net.bytes", site=src_id, dst=dst_id)
            if src_id != dst_id
            else None
        )


class NetworkStats(CounterView):
    """The deployment-wide counters ``net.sent``, ``net.delivered``,
    ``net.dropped_partition``, ``net.dropped_crash`` and
    ``net.dropped_random`` (no labels), so fault-injection runs surface
    drop counts in ``metrics_snapshot()``.  Per-site and per-link
    traffic is ``net.sent{site}``, ``net.delivered{site}`` and
    ``net.bytes{site,dst}``.
    """

    PREFIX = "net"
    FIELDS = (
        "sent",
        "delivered",
        "dropped_partition",
        "dropped_crash",
        "dropped_random",
    )

    __slots__ = ()


class Network:
    """Delivers messages between registered hosts with simulated delays."""

    #: Fixed per-message software overhead (RPC marshalling etc.), seconds.
    SOFTWARE_OVERHEAD = 50e-6

    def __init__(
        self,
        kernel: Kernel,
        topology: Topology,
        streams: Optional[RandomStreams] = None,
        jitter_frac: float = 0.05,
        loss_rate: float = 0.0,
        registry: Optional[MetricsRegistry] = None,
    ):
        self.kernel = kernel
        self.topology = topology
        self.streams = streams or RandomStreams(0)
        self._call_at = kernel.call_at
        self.jitter_frac = jitter_frac
        self.loss_rate = loss_rate
        self._mailboxes: Dict[str, Deque[Message]] = {}
        # address -> the callable ``_deliver`` hands a message to: the
        # mailbox's ``append`` until a Host attaches its own receiver.
        self._receivers: Dict[str, Callable[[Message], None]] = {}
        self._host_sites: Dict[str, Site] = {}
        # address -> site id, mirrored from _host_sites: send/deliver only
        # need the id, and one dict probe beats a lookup plus attribute
        # dereference on every message.
        self._host_site_ids: Dict[str, int] = {}
        self._crashed: Set[str] = set()
        self._partitioned: Set[Tuple[int, int]] = set()
        # One Route per directed site pair, and the route of every
        # (src, dst) address pair that has sent: a message finds its
        # route with one probe.  Routes outlive the address cache, which
        # a takeover may invalidate, so link state carries over.
        self._links: Dict[Tuple[int, int], Route] = {}
        self._routes: Dict[Tuple[str, str], Route] = {}
        #: Traffic counters live in ``registry`` (the deployment's, or a
        #: private one for a standalone network).
        self._registry = registry = registry or MetricsRegistry()
        self.stats = NetworkStats(registry)
        counter = self.stats._counter
        self._c_sent = counter("sent")
        self._c_delivered = counter("delivered")
        self._c_dropped_partition = counter("dropped_partition")
        self._c_dropped_crash = counter("dropped_crash")
        self._c_dropped_random = counter("dropped_random")

    # ------------------------------------------------------------------
    # Host management
    # ------------------------------------------------------------------
    def register(self, address: str, site, takeover: bool = False) -> Deque[Message]:
        """Create and return the mailbox for a host at ``site``: messages
        queue there unless :meth:`attach` routes them elsewhere.

        ``takeover=True`` replaces a dead host at the same address (a
        replacement Walter server keeps its predecessor's identity); the
        old mailbox and receiver are discarded and the crash flag cleared.
        """
        if address in self._mailboxes:
            if not takeover:
                raise ValueError("address %r already registered" % (address,))
            self._routes.clear()  # the address may have moved site
        mailbox: Deque[Message] = deque()
        self._mailboxes[address] = mailbox
        self._receivers[address] = mailbox.append
        self._host_sites[address] = self.topology.site(site)
        self._host_site_ids[address] = self._host_sites[address].id
        self._crashed.discard(address)
        return mailbox

    def attach(self, address: str, receiver: Callable[[Message], None]) -> None:
        """Deliver ``address``'s messages by calling ``receiver(message)``
        inside the delivery event instead of queueing them."""
        self._receivers[address] = receiver

    def detach(self, address: str, receiver: Callable[[Message], None]) -> None:
        """Queue in the mailbox again -- unless ``receiver`` is no longer
        the installed one: a host superseded by a takeover must not
        detach its replacement."""
        if self._receivers[address] == receiver:
            self._receivers[address] = self._mailboxes[address].append

    def crash_host(self, address: str) -> None:
        """Stop delivering to/from a host; queued mail is discarded."""
        self._crashed.add(address)
        self._mailboxes[address].clear()

    def recover_host(self, address: str) -> None:
        self._crashed.discard(address)

    def is_crashed(self, address: str) -> bool:
        return address in self._crashed

    # ------------------------------------------------------------------
    # Partitions
    # ------------------------------------------------------------------
    def partition(self, site_a, site_b) -> None:
        """Sever connectivity between two sites (both directions)."""
        a, b = self.topology.site(site_a).id, self.topology.site(site_b).id
        self._partitioned.add((a, b))
        self._partitioned.add((b, a))

    def heal(self, site_a, site_b) -> None:
        a, b = self.topology.site(site_a).id, self.topology.site(site_b).id
        self._partitioned.discard((a, b))
        self._partitioned.discard((b, a))

    def heal_all(self) -> None:
        self._partitioned.clear()

    def is_partitioned(self, site_a, site_b) -> bool:
        a, b = self.topology.site(site_a).id, self.topology.site(site_b).id
        return (a, b) in self._partitioned

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def send(self, src: str, dst: str, payload: Any, size_bytes: int = 256) -> None:
        """Send ``payload`` from host ``src`` to host ``dst``.

        Delivery is asynchronous and unreliable under injected faults:
        partitions and crashes silently drop (as with a TCP connection
        that never completes), so protocols must tolerate loss.
        """
        # Both the aggregate and the per-site sent counters count
        # *attempted* sends: they are incremented together, before any
        # drop check, so ``net.sent`` always equals the sum of
        # ``net.sent{site=*}``.  Counter bumps on this path write
        # ``.value`` directly -- one attribute add per message instead
        # of a method call.
        self._c_sent.value += 1
        try:
            route = self._routes[src, dst]
        except KeyError:
            route = self._route(src, dst)
            if route is None:
                return
        route.sent.value += 1
        if src in self._crashed:
            self._c_dropped_crash.value += 1
            return
        if self._partitioned and route.link in self._partitioned:
            self._c_dropped_partition.value += 1
            return
        if self.loss_rate > 0 and route.random() < self.loss_rate:
            self._c_dropped_random.value += 1
            return

        latency = route.latency
        if self.jitter_frac > 0:
            latency *= 1.0 + route.random() * self.jitter_frac
        serialize = size_bytes * 8.0 / route.bandwidth

        now = self.kernel.now
        src_id = route.src_id
        dst_id = route.dst_id
        if src_id != dst_id:
            # FIFO pipe: serialization occupies the shared link.
            start = route.free_at
            if start < now:
                start = now
            route.free_at = start + serialize
            route.bytes.value += size_bytes
            deliver_at = start + serialize + latency + self.SOFTWARE_OVERHEAD
        else:
            deliver_at = now + serialize + latency + self.SOFTWARE_OVERHEAD

        message = Message(src, dst, payload, size_bytes, sent_at=now)
        self._call_at(deliver_at, self._deliver, message, route)

    def _route(self, src: str, dst: str) -> Optional[Route]:
        """Resolve and cache the route of a first ``src`` -> ``dst`` send.
        An unknown destination raises -- unless ``src`` is crashed, whose
        send is counted and dropped (None) before anyone looks."""
        src_id = self._host_site_ids[src]
        dst_id = self._host_site_ids.get(dst)
        if dst_id is None:
            if src not in self._crashed:
                raise ValueError("unknown destination %r" % (dst,))
            self._registry.counter("net.sent", site=src_id).value += 1
            self._c_dropped_crash.value += 1
            return None
        route = self._links.get((src_id, dst_id))
        if route is None:
            # One jitter/loss stream per *directed site link*, not one
            # shared stream: messages on a link draw in their
            # (deterministic) send order on that link, independent of how
            # sends on other links interleave globally, so traffic added
            # on one link never moves another link's delays
            # (tests/net/test_determinism.py).
            route = self._links[src_id, dst_id] = Route(
                src_id,
                dst_id,
                self.topology.one_way(src_id, dst_id),
                self.topology.bandwidth_bps(src_id, dst_id),
                self.streams.stream("net.jitter.%d-%d" % (src_id, dst_id)).random,
                self._registry,
            )
        self._routes[src, dst] = route
        return route

    def _deliver(self, message: Message, route: Route) -> None:
        dst = message.dst
        if dst in self._crashed:
            self._c_dropped_crash.value += 1
            return
        if self._partitioned and route.link in self._partitioned:
            self._c_dropped_partition.value += 1
            return
        message.delivered_at = self.kernel.now
        self._c_delivered.value += 1
        route.delivered.value += 1
        self._receivers[dst](message)
