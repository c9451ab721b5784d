"""Redis-like baseline for the ReTwis comparison (paper §8.7).

A single-threaded in-memory key-value server with the native atomic
operations ReTwis uses -- INCR, SET/GET, LPUSH/LRANGE, SADD/SMEMBERS,
MGET -- and master-slave asynchronous replication ("In Redis, cross-site
replication is based on a master-slave scheme"), so slaves are read-only.

Single-threadedness is modelled as a CPU resource with capacity 1: every
command serializes, which is faithful to Redis's execution model.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ..errors import WalterError
from ..net import Host, Network, service_time
from ..server.state import ServerCosts
from ..sim import Interrupt, Kernel, Resource


class ReadOnlySlaveError(WalterError):
    """Updates are only allowed at the master."""


class RedisServer(Host):
    """One Redis instance (master or slave)."""

    def __init__(
        self,
        kernel: Kernel,
        network: Network,
        site,
        name: str,
        costs: Optional[ServerCosts] = None,
        role: str = "master",
        slaves: Optional[List[str]] = None,
        ship_interval: float = 0.005,
    ):
        super().__init__(kernel, network, site, name)
        self.costs = costs or ServerCosts(cores=1, read_op=35e-6, write_op=35e-6)
        self.role = role
        self.slave_addresses = list(slaves or [])
        self.cpu = Resource(kernel, 1, name="%s.cpu" % name)  # single thread
        self.data: Dict[str, Any] = {}
        self._oplog: List[tuple] = []
        self.ship_interval = ship_interval
        self._shipper = None

    def start(self) -> None:
        super().start()
        if self.role == "master" and self.slave_addresses and self._shipper is None:
            self._shipper = self.kernel.spawn(
                self._ship_loop(), name="%s.shipper" % self.address
            )

    def _write_guard(self) -> None:
        """A slave refuses a write before queueing for the CPU, which is
        why the write commands charge for themselves after this guard
        instead of declaring a ``service_time``."""
        if self.role != "master":
            raise ReadOnlySlaveError("slave %s is read-only" % self.address)

    def _log(self, *op) -> None:
        if self.slave_addresses:
            self._oplog.append(op)

    # ------------------------------------------------------------------
    # Commands
    # ------------------------------------------------------------------
    @service_time("read_op")
    def rpc_get(self, key: str):
        return self.data.get(key)

    def rpc_set(self, key: str, value: Any):
        self._write_guard()
        yield self.cpu.hold(self.costs.write_op)
        self.data[key] = value
        self._log("set", key, value)
        return "OK"

    def rpc_incr(self, key: str):
        self._write_guard()
        yield self.cpu.hold(self.costs.write_op)
        value = int(self.data.get(key, 0)) + 1
        self.data[key] = value
        self._log("set", key, value)
        return value

    def rpc_lpush(self, key: str, value: Any):
        self._write_guard()
        yield self.cpu.hold(self.costs.write_op)
        lst = self.data.setdefault(key, [])
        lst.insert(0, value)
        self._log("lpush", key, value)
        return len(lst)

    @service_time("read_op")
    def rpc_lrange(self, key: str, start: int, stop: int):
        lst = self.data.get(key, [])
        # Redis LRANGE stop is inclusive.
        return list(lst[start: stop + 1])

    def rpc_sadd(self, key: str, member: Any):
        self._write_guard()
        yield self.cpu.hold(self.costs.write_op)
        members = self.data.setdefault(key, set())
        added = 0 if member in members else 1
        members.add(member)
        self._log("sadd", key, member)
        return added

    def rpc_srem(self, key: str, member: Any):
        self._write_guard()
        yield self.cpu.hold(self.costs.write_op)
        members = self.data.setdefault(key, set())
        removed = 1 if member in members else 0
        members.discard(member)
        self._log("srem", key, member)
        return removed

    @service_time("read_op")
    def rpc_smembers(self, key: str):
        return set(self.data.get(key, set()))

    @service_time(
        lambda server, keys: server.costs.read_op
        + 0.25 * server.costs.read_op * max(0, len(keys) - 1)
    )
    def rpc_mget(self, keys: List[str]):
        return [self.data.get(k) for k in keys]

    # ------------------------------------------------------------------
    # Master-slave replication
    # ------------------------------------------------------------------
    def _ship_loop(self):
        try:
            while True:
                yield self.kernel.timeout(self.ship_interval)
                if not self._oplog:
                    continue
                batch, self._oplog = self._oplog, []
                size = 64 + 48 * len(batch)
                for address in self.slave_addresses:
                    self.cast(address, "replicate", size_bytes=size, batch=batch)
        except Interrupt:
            return

    def on_replicate(self, src: str, batch):
        for op in batch:
            # Charged per applied record (casts declare no service time).
            yield self.cpu.hold(self.costs.apply_remote)
            kind, key = op[0], op[1]
            if kind == "set":
                self.data[key] = op[2]
            elif kind == "lpush":
                self.data.setdefault(key, []).insert(0, op[2])
            elif kind == "sadd":
                self.data.setdefault(key, set()).add(op[2])
            elif kind == "srem":
                self.data.setdefault(key, set()).discard(op[2])
