"""Per-site access profiling: hot keys and per-container traffic.

ROADMAP item 5 (workload-adaptive preferred-site placement) needs to
know, per site, which objects are hot, who writes them, and where the
conflicts are.  This module provides that telemetry:

* :class:`SpaceSaving` -- the deterministic space-saving heavy-hitters
  sketch (Metwally et al.): bounded memory, every key with frequency
  above ``1/capacity`` of the stream is guaranteed present, and each
  entry carries an overestimation ``error`` bound.  Eviction picks the
  minimum ``(count, insertion_seq)`` entry, so two same-seed runs evict
  identically.
* :class:`AccessProfiler` -- one per server: a hot-key sketch over
  object ids plus exact per-container counters (reads, writes,
  conflicts, remote applies, owner vs non-owner traffic).  Exported by
  ``Deployment.metrics_snapshot()`` under ``"access_profile"``.

Everything here is plain dict arithmetic driven by protocol hooks; the
profiler never touches the kernel, so it cannot perturb schedules.
"""

from __future__ import annotations

import heapq
from typing import Any, Dict, List, Optional


class SpaceSaving:
    """Deterministic space-saving sketch with per-entry payload counters.

    ``observe(key, field)`` counts one occurrence of ``key`` and bumps
    the named payload counter on its entry.  When the sketch is full, a
    new key replaces the current minimum-count entry (ties broken by
    insertion order) and inherits its count as the overestimation
    ``error`` -- the classic space-saving guarantee.  Payload counters
    restart with the new key (they describe the entry's residency, not
    the evicted key's history).
    """

    __slots__ = ("capacity", "_entries", "_heap", "_seq", "evictions", "observations")

    def __init__(self, capacity: int = 64):
        if capacity < 1:
            raise ValueError("sketch capacity must be >= 1")
        self.capacity = capacity
        # key -> [count, error, insertion_seq, payload_dict]
        self._entries: Dict[Any, list] = {}
        # Lazy min-heap of (count_at_push, insertion_seq, key); every
        # live key has exactly one heap entry whose pushed count is a
        # lower bound on its current count.
        self._heap: List[tuple] = []
        self._seq = 0
        self.evictions = 0
        self.observations = 0

    def __len__(self) -> int:
        return len(self._entries)

    def observe(self, key, field: Optional[str] = None, owner: Optional[bool] = None) -> None:
        self.observations += 1
        entries = self._entries
        entry = entries.get(key)
        if entry is None:
            self._seq += 1
            heap = self._heap
            if len(entries) >= self.capacity:
                # Evict the minimum (count, seq) entry and hand its heap
                # slot to the new key.  A head whose count grew since it
                # was pushed is stale: refresh it in place and look again.
                while True:
                    count, seq, victim = heap[0]
                    current = entries[victim][0]
                    if current == count:
                        break
                    heapq.heapreplace(heap, (current, seq, victim))
                del entries[victim]
                self.evictions += 1
                entry = [count + 1, count, self._seq, {}]
                heapq.heapreplace(heap, (count + 1, self._seq, key))
            else:
                entry = [1, 0, self._seq, {}]
                heapq.heappush(heap, (1, self._seq, key))
            entries[key] = entry
        else:
            entry[0] += 1
        payload = entry[3]
        if field is not None:
            payload[field] = payload.get(field, 0) + 1
        if owner is not None:
            okey = "owner_ops" if owner else "nonowner_ops"
            payload[okey] = payload.get(okey, 0) + 1

    def get(self, key) -> Optional[Dict[str, Any]]:
        entry = self._entries.get(key)
        if entry is None:
            return None
        return self._entry_dict(key, entry)

    @staticmethod
    def _entry_dict(key, entry) -> Dict[str, Any]:
        out = {"key": str(key), "count": entry[0], "error": entry[1]}
        for field in sorted(entry[3]):
            out[field] = entry[3][field]
        return out

    def top(self, n: Optional[int] = None) -> List[Dict[str, Any]]:
        """Entries by descending count (ties by key string): the
        heavy-hitter report."""
        ranked = sorted(
            self._entries.items(), key=lambda kv: (-kv[1][0], str(kv[0]))
        )
        if n is not None:
            ranked = ranked[:n]
        return [self._entry_dict(key, entry) for key, entry in ranked]


#: Exact per-container counter names, in report order.
CONTAINER_FIELDS = (
    "reads",
    "writes",
    "conflicts",
    "remote_applies",
    "owner_ops",
    "nonowner_ops",
)


class AccessProfiler:
    """Per-site access statistics: a hot-key sketch plus exact
    per-container counters.  One per :class:`~repro.server.WalterServer`;
    fed by the read, commit, conflict, and propagation-apply paths."""

    __slots__ = ("site", "hot", "containers")

    def __init__(self, site: int, capacity: int = 64):
        self.site = site
        self.hot = SpaceSaving(capacity)
        self.containers: Dict[str, Dict[str, int]] = {}

    def _container(self, cid: str) -> Dict[str, int]:
        stats = self.containers.get(cid)
        if stats is None:
            stats = self.containers[cid] = dict.fromkeys(CONTAINER_FIELDS, 0)
        return stats

    def record_read(self, oid, owner: bool) -> None:
        self.hot.observe(oid, "reads", owner=owner)
        stats = self._container(oid.container)
        stats["reads"] += 1
        stats["owner_ops" if owner else "nonowner_ops"] += 1

    def record_write(self, oid, owner: bool) -> None:
        self.hot.observe(oid, "writes", owner=owner)
        stats = self._container(oid.container)
        stats["writes"] += 1
        stats["owner_ops" if owner else "nonowner_ops"] += 1

    def record_conflict(self, oid) -> None:
        """A commit (fast conflict check or 2PC prepare) was refused
        because of this object."""
        self.hot.observe(oid, "conflicts")
        self._container(oid.container)["conflicts"] += 1

    def record_remote_apply(self, oid) -> None:
        """A propagated remote update touched this object here."""
        self.hot.observe(oid, "remote_applies")
        self._container(oid.container)["remote_applies"] += 1

    def as_dict(self, top: int = 10) -> Dict[str, Any]:
        """Deterministic snapshot for ``metrics_snapshot()``."""
        return {
            "site": self.site,
            "observations": self.hot.observations,
            "tracked_keys": len(self.hot),
            "evictions": self.hot.evictions,
            "hot_keys": self.hot.top(top),
            "containers": {
                cid: dict(stats) for cid, stats in sorted(self.containers.items())
            },
        }
