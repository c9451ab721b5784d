"""Berkeley-DB-style baseline: a primary-copy store with snapshot
isolation and asynchronous (log-shipping) replication (paper §8.2).

The paper compares Walter's base throughput against Berkeley DB 11gR2
"configured ... with snapshot isolation ... two replicas with
asynchronous replication.  Since BDB allows updates at only one replica
(the primary)".  This module reproduces that protocol shape:

* one primary server executes all transactions under SI (MVCC with a
  single commit order and first-committer-wins write conflicts),
* commit records are flushed with group commit,
* committed updates ship asynchronously, in batches, to read-only
  replicas, which apply them in commit order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..errors import TransactionStateError, WalterError
from ..net import Host, Network, service_time
from ..server.state import ServerCosts
from ..sim import Interrupt, Kernel, Lock, Resource
from ..storage import DiskLog

COMMITTED = "COMMITTED"
ABORTED = "ABORTED"


class ReadOnlyReplicaError(WalterError):
    """Writes are only allowed at the primary."""


@dataclass
class BDBTx:
    tid: str
    start_ts: int
    reads: List[str] = field(default_factory=list)
    writes: Dict[str, Any] = field(default_factory=dict)
    status: str = "ACTIVE"
    commit_ts: Optional[int] = None


class BDBServer(Host):
    """Primary or read-only replica of the baseline database."""

    def __init__(
        self,
        kernel: Kernel,
        network: Network,
        site,
        name: str,
        costs: Optional[ServerCosts] = None,
        role: str = "primary",
        replicas: Optional[List[str]] = None,
        flush_latency: float = 0.001,
        ship_interval: float = 0.005,
    ):
        super().__init__(kernel, network, site, name)
        self.costs = costs or ServerCosts()
        self.role = role
        self.replica_addresses = list(replicas or [])
        self.cpu = Resource(kernel, self.costs.cores, name="%s.cpu" % name)
        self.commit_lock = Lock(kernel, name="%s.commit" % name)
        self.disk = DiskLog(kernel, flush_latency=flush_latency, name="%s.disk" % name)
        self.ship_interval = ship_interval
        # MVCC store: key -> list of (commit_ts, value), ascending.
        self._versions: Dict[str, List[Tuple[int, Any]]] = {}
        self._commit_ts = itertools.count(1)
        self._applied_ts = 0  # newest commit timestamp visible here
        self._txs: Dict[str, BDBTx] = {}
        # Commit history for SI conflict checks: (commit_ts, write keys).
        self._commit_log: List[Tuple[int, frozenset]] = []
        self._ship_queue: List[Tuple[int, Dict[str, Any]]] = []
        self._shipper = None
        self.replicated_upto = 0  # on replicas: last applied commit ts
        #: tid -> (start_ts, commit_ts) of committed transactions -- the
        #: SI witness the protocol-zoo oracle checks reads against.
        self.tx_timestamps: Dict[str, Tuple[int, int]] = {}

    def start(self) -> None:
        super().start()
        if self.role == "primary" and self.replica_addresses and self._shipper is None:
            self._shipper = self.kernel.spawn(
                self._ship_loop(), name="%s.shipper" % self.address
            )

    # ------------------------------------------------------------------
    # Snapshot reads
    # ------------------------------------------------------------------
    def _read_at(self, key: str, snapshot_ts: int) -> Any:
        for commit_ts, value in reversed(self._versions.get(key, [])):
            if commit_ts <= snapshot_ts:
                return value
        return None

    def _install(self, key: str, commit_ts: int, value: Any) -> None:
        self._versions.setdefault(key, []).append((commit_ts, value))

    # ------------------------------------------------------------------
    # Autocommit single-op transactions (the Fig 16 workload)
    # ------------------------------------------------------------------
    @service_time("read_op")
    def rpc_get(self, key: str):
        return self._read_at(key, self._applied_ts)

    def rpc_put(self, key: str, value: Any):
        if self.role != "primary":
            raise ReadOnlyReplicaError("replica %s is read-only" % self.address)
        # Charged here, not declared: a replica refuses before queueing for a core.
        yield self.cpu.hold(self.costs.write_op)
        yield self.commit_lock.acquire()
        try:
            yield self.kernel.timeout(self.costs.commit_critical)
            commit_ts = next(self._commit_ts)
            self._install(key, commit_ts, value)
            self._applied_ts = commit_ts
            self._commit_log.append((commit_ts, frozenset([key])))
            self._ship_queue.append((commit_ts, {key: value}))
        finally:
            self.commit_lock.release()
        yield self.disk.append(("put", key))
        return COMMITTED

    # ------------------------------------------------------------------
    # Multi-op SI transactions
    # ------------------------------------------------------------------
    @service_time(lambda server, tid: server.costs.read_op * 0.5)
    def rpc_tx_begin(self, tid: str):
        tx = BDBTx(tid=tid, start_ts=self._applied_ts)
        self._txs[tid] = tx
        return tx.start_ts

    def _tx(self, tid: str) -> BDBTx:
        tx = self._txs.get(tid)
        if tx is None or tx.status != "ACTIVE":
            raise TransactionStateError("unknown/finished tx %r" % (tid,))
        return tx

    @service_time("read_op")
    def rpc_tx_get(self, tid: str, key: str):
        tx = self._tx(tid)
        if key in tx.writes:
            return tx.writes[key]
        tx.reads.append(key)
        return self._read_at(key, tx.start_ts)

    def rpc_tx_put(self, tid: str, key: str, value: Any):
        if self.role != "primary":
            raise ReadOnlyReplicaError("replica %s is read-only" % self.address)
        # Charged here, not declared: a replica refuses before queueing for a core.
        yield self.cpu.hold(self.costs.write_op)
        self._tx(tid).writes[key] = value
        return "OK"

    @service_time("commit_op")
    def rpc_tx_commit(self, tid: str):
        tx = self._tx(tid)
        if not tx.writes:
            tx.status = COMMITTED
            tx.commit_ts = tx.start_ts
            self.tx_timestamps[tid] = (tx.start_ts, tx.start_ts)
            self._txs.pop(tid, None)
            return COMMITTED
        yield self.commit_lock.acquire()
        try:
            yield self.kernel.timeout(self.costs.commit_critical)
            write_set = frozenset(tx.writes)
            conflict = any(
                ts > tx.start_ts and keys & write_set
                for ts, keys in self._commit_log
            )
            if conflict:
                tx.status = ABORTED
                self._txs.pop(tid, None)
                return ABORTED
            commit_ts = next(self._commit_ts)
            for key, value in tx.writes.items():
                self._install(key, commit_ts, value)
            self._applied_ts = commit_ts
            self._commit_log.append((commit_ts, write_set))
            self._ship_queue.append((commit_ts, dict(tx.writes)))
            tx.commit_ts = commit_ts
            self.tx_timestamps[tid] = (tx.start_ts, commit_ts)
        finally:
            self.commit_lock.release()
        yield self.disk.append(("commit", tid))
        tx.status = COMMITTED
        self._txs.pop(tid, None)
        return COMMITTED

    def rpc_tx_abort(self, tid: str):
        tx = self._txs.pop(tid, None)
        if tx is not None:
            tx.status = ABORTED
        return ABORTED

    # ------------------------------------------------------------------
    # Asynchronous replication (primary -> replicas)
    # ------------------------------------------------------------------
    def _ship_loop(self):
        try:
            while True:
                yield self.kernel.timeout(self.ship_interval)
                if not self._ship_queue:
                    continue
                batch, self._ship_queue = self._ship_queue, []
                size = 64 + sum(
                    32 + sum(len(str(v)) for v in writes.values())
                    for _ts, writes in batch
                )
                for address in self.replica_addresses:
                    self.cast(address, "apply_batch", size_bytes=size, batch=batch)
        except Interrupt:
            return

    def on_apply_batch(self, src: str, batch):
        for commit_ts, writes in batch:
            if commit_ts <= self.replicated_upto:
                continue
            # Charged per applied record (casts declare no service time).
            yield self.cpu.hold(self.costs.apply_remote)
            for key, value in writes.items():
                self._install(key, commit_ts, value)
            self.replicated_upto = commit_ts
            self._applied_ts = max(self._applied_ts, commit_ts)


def build_bdb_pair(
    kernel: Kernel,
    network: Network,
    costs: Optional[ServerCosts] = None,
    primary_site=0,
    replica_site=1,
    flush_latency: float = 0.001,
):
    """The §8.2 setup: primary (private cluster) + one async replica (CA)."""
    primary = BDBServer(
        kernel, network, primary_site, "bdb-primary",
        costs=costs, role="primary", replicas=["bdb-replica"],
        flush_latency=flush_latency,
    )
    replica = BDBServer(
        kernel, network, replica_site, "bdb-replica",
        costs=costs, role="replica", flush_latency=flush_latency,
    )
    replica.start()
    primary.start()
    return primary, replica
