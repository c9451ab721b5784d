"""Walter client library (paper Fig 14, §4.2, §6).

Clients talk to the Walter server at their own site via RPC.  The API
mirrors the C++ one: ``start``, ``read``, ``write``, ``setAdd``,
``setDel``, ``setRead``, ``setReadId``, ``commit``, ``abort``, plus
``new_id`` to mint fresh object ids.

Optimizations from the paper are available explicitly:

* the *start* of a transaction is always piggybacked onto its first
  access (``start_tx`` itself costs no RPC);
* passing ``last=True`` to an access piggybacks the *commit* onto it, so
  a single-access transaction costs exactly one RPC (§8.2);
* ``commit`` registers callbacks: the returned handle exposes events that
  fire when the transaction is disaster-safe durable and globally visible
  (§4.2).

All operation methods are generators; drive them with ``yield from``
inside a simulated process.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Any, Hashable, Optional

from ..core.cset import CSet
from ..core.objects import ObjectId, ObjectKind
from ..net import Host, Network, RpcTimeout
from ..obs.trace import CLIENT_COMMIT_REPLY, CLIENT_COMMIT_SEND, COMMIT_RPC_END
from ..sim import Event, Kernel

COMMITTED = "COMMITTED"
ABORTED = "ABORTED"


@dataclass(frozen=True)
class RetryPolicy:
    """Opt-in client retry for idempotent RPCs (DESIGN.md §9).

    Retries fire on :class:`~repro.net.RpcTimeout` only -- a remote
    error means the server answered.  Reads and aborts are naturally
    idempotent; ``commit`` becomes idempotent through a client-chosen
    token (``ck``) the server uses to cache the outcome, so a commit
    whose *reply* was lost is answered from the cache instead of being
    re-run.  Buffered-update RPCs (write/setAdd/setDel) are never
    retried: a duplicated setAdd would double the element count.

    Backoff is exponential with deterministic jitter: each client draws
    from a private stream seeded by its (unique) address, so retries
    stay reproducible under the simulation's fixed seeds."""

    #: Total attempts, including the first.
    attempts: int = 4
    #: Backoff before the first retry (seconds); doubles per retry.
    base_delay: float = 0.25
    multiplier: float = 2.0
    max_delay: float = 2.0
    #: Multiplicative jitter fraction on each backoff.
    jitter: float = 0.1


class TxHandle:
    """Client-side transaction handle.

    The §4.2 callbacks are :attr:`ds_event` and :attr:`visible_event`.
    The handle records the simulated time each milestone arrived and
    builds an event only when one is asked for -- already triggered,
    with that time, if the milestone has passed -- so a transaction
    nobody waits on carries no events.  Slotted: a client holds a handle
    per transaction until both milestones arrive."""

    __slots__ = (
        "tid", "client", "status", "started", "wrote",
        "ds_at", "visible_at", "_ds_event", "_visible_event",
    )

    def __init__(self, tid: str, client: "WalterClient"):
        self.tid = tid
        self.client = client
        self.status: Optional[str] = None
        self.started = False
        #: An update was issued through this handle (only updates get milestones).
        self.wrote = False
        #: Simulated time the transaction became disaster-safe durable /
        #: globally visible, or None until then.
        self.ds_at: Optional[float] = None
        self.visible_at: Optional[float] = None
        self._ds_event: Optional[Event] = None
        self._visible_event: Optional[Event] = None

    def __repr__(self) -> str:
        return "TxHandle(%s, status=%s)" % (self.tid, self.status)

    @property
    def committed(self) -> bool:
        return self.status == COMMITTED

    @property
    def ds_event(self) -> Event:
        """Fires with the time the transaction became disaster-safe durable."""
        if self._ds_event is None:
            self._ds_event = self._milestone_event("ds:%s", self.ds_at)
        return self._ds_event

    @property
    def visible_event(self) -> Event:
        """Fires with the time the transaction became globally visible."""
        if self._visible_event is None:
            self._visible_event = self._milestone_event("vis:%s", self.visible_at)
        return self._visible_event

    def _milestone_event(self, name: str, at: Optional[float]) -> Event:
        event = Event(self.client.kernel, (name, (self.tid,)))
        if at is not None:
            event.trigger(at)
        return event

class WalterClient(Host):
    """An application client bound to its site's Walter server."""

    def __init__(
        self,
        kernel: Kernel,
        network: Network,
        site,
        name: str,
        server_address: str,
        config,
        retry: Optional[RetryPolicy] = None,
        obs=None,
    ):
        super().__init__(kernel, network, site, name)
        self.server_address = server_address
        self.config = config
        self.retry = retry
        # The topology is fixed after construction: one value per client.
        self._op_timeout = 8.0 * network.topology.max_rtt_from(self.site.id) + 2.0
        # Deep tracing only: the client brackets the commit RPC with
        # send/reply spans so budgets cover the full observed round trip.
        self._tracer = obs.tracer if obs is not None else None
        self._handles = {}
        # Per-client so tids are deterministic for a fixed seed (the
        # address is already unique on the network).
        self._tid_seq = itertools.count(1)
        # Deterministic backoff jitter: seeded by the unique address so
        # same-seed runs retry at identical sim times.  Built only for a
        # client that retries (a Random is 2.5 KiB).
        self._retry_rng = random.Random("retry:%s" % name) if retry is not None else None
        #: Retries actually performed (observability for tests).
        self.retries_attempted = 0

    def _call_op(self, method: str, idempotent: bool = False, span=None, **args):
        """Generator: one client->server RPC, with retry-on-timeout for
        idempotent operations when a :class:`RetryPolicy` is set."""
        policy = self.retry
        if policy is None or not idempotent:
            result = yield from self.call(
                self.server_address, method, timeout=self._op_timeout,
                span=span, **args
            )
            return result
        delay = policy.base_delay
        for attempt in range(max(1, policy.attempts)):
            try:
                result = yield from self.call(
                    self.server_address, method, timeout=self._op_timeout,
                    span=span, **args
                )
                return result
            except RpcTimeout:
                if attempt >= policy.attempts - 1:
                    raise
                self.retries_attempted += 1
                sleep = min(delay, policy.max_delay)
                sleep *= 1.0 + policy.jitter * self._retry_rng.random()
                yield self.kernel.timeout(sleep)
                delay *= policy.multiplier

    # ------------------------------------------------------------------
    # Transaction lifecycle
    # ------------------------------------------------------------------
    def start_tx(self) -> TxHandle:
        """Local-only start; the server starts the transaction on the
        first access RPC (piggybacked start)."""
        tid = "%s:%d" % (self.address, next(self._tid_seq))
        handle = TxHandle(tid, self)
        self._handles[tid] = handle
        return handle

    def begin(self, tx: TxHandle):
        """Generator: eagerly start the transaction at the server (the
        C++ API's explicit ``start()``).  Without this, the start -- and
        the snapshot -- is taken at the first access RPC (§8.2)."""
        result = yield from self._call_op("tx_start", idempotent=True, tid=tx.tid)
        tx.started = True
        return result

    def commit(self, tx: TxHandle):
        """Generator: try to commit; returns COMMITTED or ABORTED.

        With a retry policy the commit carries an idempotency token, so
        a retry after a lost reply is answered from the server's outcome
        cache -- the transaction commits at most once either way."""
        kwargs = {}
        if self.retry is not None:
            kwargs["ck"] = "%s#commit" % tx.tid
        tracer = self._tracer
        if tracer is not None:
            sent = tracer.record(
                tx.tid, CLIENT_COMMIT_SEND, self.site.id, self.kernel.now
            )
            kwargs["span"] = (tx.tid, sent.seq)
        status = yield from self._call_op(
            "tx_commit",
            idempotent=self.retry is not None,
            tid=tx.tid,
            notify=self.address,
            allow_fresh=not tx.started,
            **kwargs,
        )
        if tracer is not None:
            tracer.record(
                tx.tid, CLIENT_COMMIT_REPLY, self.site.id, self.kernel.now,
                parent=tracer.last_seq(tx.tid, COMMIT_RPC_END),
            )
        self._finish(tx, status)
        return status

    def abort(self, tx: TxHandle):
        status = yield from self._call_op("tx_abort", idempotent=True, tid=tx.tid)
        self._finish(tx, ABORTED)
        return status

    # ------------------------------------------------------------------
    # Regular objects
    # ------------------------------------------------------------------
    def read(self, tx: TxHandle, oid: ObjectId, last: bool = False):
        result = yield from self._call_op(
            "tx_read",
            idempotent=not last,  # last=True piggybacks the commit
            tid=tx.tid,
            fresh=not tx.started,
            oid=oid,
            last=last,
            notify=self.address if last else None,
        )
        return self._unpack(tx, result, last)

    def write(self, tx: TxHandle, oid: ObjectId, data: Any, last: bool = False):
        tx.wrote = True
        result = yield from self._call_op(
            "tx_write",
            tid=tx.tid,
            fresh=not tx.started,
            oid=oid,
            data=data,
            last=last,
            notify=self.address if last else None,
        )
        tx.started = True
        if last:
            self._finish(tx, result)
        return result

    # ------------------------------------------------------------------
    # Cset objects
    # ------------------------------------------------------------------
    def set_add(self, tx: TxHandle, oid: ObjectId, elem: Hashable, last: bool = False):
        tx.wrote = True
        result = yield from self._call_op(
            "tx_set_add",
            tid=tx.tid,
            fresh=not tx.started,
            oid=oid,
            elem=elem,
            last=last,
            notify=self.address if last else None,
        )
        tx.started = True
        if last:
            self._finish(tx, result)
        return result

    def set_del(self, tx: TxHandle, oid: ObjectId, elem: Hashable, last: bool = False):
        tx.wrote = True
        result = yield from self._call_op(
            "tx_set_del",
            tid=tx.tid,
            fresh=not tx.started,
            oid=oid,
            elem=elem,
            last=last,
            notify=self.address if last else None,
        )
        tx.started = True
        if last:
            self._finish(tx, result)
        return result

    def set_read(self, tx: TxHandle, oid: ObjectId) -> CSet:
        cset = yield from self._call_op(
            "tx_set_read",
            idempotent=True,
            tid=tx.tid,
            fresh=not tx.started,
            oid=oid,
        )
        tx.started = True
        return cset

    def set_read_id(self, tx: TxHandle, oid: ObjectId, elem: Hashable, last: bool = False):
        result = yield from self._call_op(
            "tx_set_read_id",
            idempotent=not last,
            tid=tx.tid,
            fresh=not tx.started,
            oid=oid,
            elem=elem,
            last=last,
            notify=self.address if last else None,
        )
        return self._unpack(tx, result, last)

    # ------------------------------------------------------------------
    # Combined operations (one RPC, §6)
    # ------------------------------------------------------------------
    def multiread(self, tx: TxHandle, oids, last: bool = False):
        result = yield from self._call_op(
            "tx_multiread",
            idempotent=not last,
            tid=tx.tid,
            fresh=not tx.started,
            oids=list(oids),
            last=last,
            notify=self.address if last else None,
        )
        return self._unpack(tx, result, last)

    def multiwrite(self, tx: TxHandle, writes, last: bool = False):
        tx.wrote = True
        result = yield from self._call_op(
            "tx_multiwrite",
            tid=tx.tid,
            fresh=not tx.started,
            writes=list(writes),
            last=last,
            notify=self.address if last else None,
        )
        tx.started = True
        if last:
            self._finish(tx, result)
        return result

    def read_cset_objects(self, tx: TxHandle, oid: ObjectId, limit=None, newest_first=True):
        result = yield from self._call_op(
            "tx_read_cset_objects",
            idempotent=True,
            tid=tx.tid,
            fresh=not tx.started,
            oid=oid,
            limit=limit,
            newest_first=newest_first,
        )
        tx.started = True
        return result

    # ------------------------------------------------------------------
    # Read-modify-write idioms (§3.4)
    # ------------------------------------------------------------------
    def read_modify_write(self, oid: ObjectId, fn, retries: int = 10):
        """Generator: atomically apply ``fn(old_value) -> new_value``.

        "Because PSI disallows write-write conflicts, a transaction can
        implement any atomic read-modify-write operation" (§3.4).  The
        transaction retries on conflict aborts; returns
        ``(status, new_value)``.
        """
        for _attempt in range(retries):
            tx = self.start_tx()
            old = yield from self.read(tx, oid)
            new = fn(old)
            yield from self.write(tx, oid, new)
            status = yield from self.commit(tx)
            if status == COMMITTED:
                return (status, new)
        return (ABORTED, None)

    def atomic_increment(self, oid: ObjectId, delta: int = 1, retries: int = 10):
        """Generator: atomic counter increment (nil counts as zero)."""
        result = yield from self.read_modify_write(
            oid, lambda old: (old or 0) + delta, retries=retries
        )
        return result

    def conditional_write(self, oid: ObjectId, expected: Any, new_value: Any):
        """Generator: write ``new_value`` only if the object currently
        holds ``expected`` (§3.4\'s conditional write / compare-and-set).
        Returns ``(True, status)`` if the condition held and the write
        committed, else ``(False, status)``."""
        tx = self.start_tx()
        current = yield from self.read(tx, oid)
        if current != expected:
            yield from self.abort(tx)
            return (False, ABORTED)
        yield from self.write(tx, oid, new_value)
        status = yield from self.commit(tx)
        return (status == COMMITTED, status)

    # ------------------------------------------------------------------
    # Object ids
    # ------------------------------------------------------------------
    def new_id(self, cid: str, kind: ObjectKind = ObjectKind.REGULAR) -> ObjectId:
        """Mint a fresh oid in a container (Fig 14 ``newid``); objects
        conceptually always exist initialized to nil, so this is local."""
        return self.config.container(cid).new_id(kind)

    # ------------------------------------------------------------------
    # Durability callbacks (server casts)
    # ------------------------------------------------------------------
    def on_tx_ds_durable(self, src: str, tid: str):
        handle = self._handles.get(tid)
        if handle is not None and handle.ds_at is None:
            handle.ds_at = self.kernel.now
            if handle._ds_event is not None:
                handle._ds_event.trigger(handle.ds_at)
            self._forget_if_done(handle)

    def on_tx_visible(self, src: str, tid: str):
        handle = self._handles.get(tid)
        if handle is not None and handle.visible_at is None:
            handle.visible_at = self.kernel.now
            if handle._visible_event is not None:
                handle._visible_event.trigger(handle.visible_at)
            self._forget_if_done(handle)

    def _forget_if_done(self, handle: TxHandle) -> None:
        if handle.ds_at is not None and handle.visible_at is not None:
            # Both delivered (in either order): nothing more can arrive;
            # the application keeps its own reference.
            del self._handles[handle.tid]

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _unpack(self, tx: TxHandle, result, last: bool):
        tx.started = True
        if last:
            value, status = result
            self._finish(tx, status)
            return value
        return result

    def _finish(self, tx: TxHandle, status: str) -> None:
        tx.status = status
        if status != COMMITTED or not tx.wrote:
            # No durability milestone will ever arrive: aborted, or a
            # read-only commit (the server tracks and casts updates only).
            self._handles.pop(tx.tid, None)
