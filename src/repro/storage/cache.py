"""In-memory object cache with cset-preferring eviction (paper §6).

"The entries in the in-memory cache are evicted on an LRU basis.  Since it
is expensive to reconstruct csets from the log, the eviction policy
prefers to evict regular objects rather than csets."

Implemented as two LRU queues (regular and cset); eviction drains the
regular queue first and touches csets only when no regular entry remains.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Optional, Tuple

from ..core.objects import ObjectId, ObjectKind
from ..obs.metrics import CounterView


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    evictions_regular: int = 0
    evictions_cset: int = 0

    def inc(self, name: str, n: int = 1) -> None:
        setattr(self, name, getattr(self, name) + n)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class RegistryCacheStats(CounterView):
    """The :class:`CacheStats` attribute API backed by per-site counters
    in a :class:`repro.obs.MetricsRegistry` (``cache.<field>{site=s}``),
    so cache hit-rates show up in benchmark metric snapshots instead of
    staying siloed in the storage layer."""

    PREFIX = "cache"
    FIELDS = ("hits", "misses", "evictions_regular", "evictions_cset")

    __slots__ = ()

    def __init__(self, registry, site: int):
        super().__init__(registry, site=site)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class ObjectCache:
    """LRU cache keyed by ObjectId, preferring to evict regular objects."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._regular: "OrderedDict[ObjectId, Any]" = OrderedDict()
        self._cset: "OrderedDict[ObjectId, Any]" = OrderedDict()
        self.stats = CacheStats()

    def bind_metrics(self, registry, site: int) -> None:
        """Mirror this cache's stats into registry counters; existing
        counts carry over.  Idempotent (a replacement server rebinding
        the same storage keeps the same counters)."""
        stats = RegistryCacheStats(registry, site)
        if not isinstance(self.stats, RegistryCacheStats):
            for field_name in RegistryCacheStats.FIELDS:
                stats._counter(field_name).inc(getattr(self.stats, field_name))
        self.stats = stats

    def __len__(self) -> int:
        return len(self._regular) + len(self._cset)

    def __contains__(self, oid: ObjectId) -> bool:
        return oid in self._regular or oid in self._cset

    def _queue_for(self, oid: ObjectId) -> "OrderedDict[ObjectId, Any]":
        return self._cset if oid.kind is ObjectKind.CSET else self._regular

    def get(self, oid: ObjectId) -> Tuple[bool, Any]:
        """Return ``(hit, value)``; a hit refreshes LRU recency."""
        queue = self._queue_for(oid)
        if oid in queue:
            queue.move_to_end(oid)
            self.stats.inc("hits")
            return True, queue[oid]
        self.stats.inc("misses")
        return False, None

    def put(self, oid: ObjectId, value: Any) -> Optional[ObjectId]:
        """Insert/refresh; returns the evicted oid if any."""
        queue = self._queue_for(oid)
        before = len(queue)
        queue[oid] = value
        if len(queue) == before:  # a refresh: nothing to evict
            queue.move_to_end(oid)
            return None
        if len(self) <= self.capacity:
            return None
        return self._evict()

    def _evict(self) -> ObjectId:
        if self._regular:
            victim, _ = self._regular.popitem(last=False)
            self.stats.inc("evictions_regular")
        else:
            victim, _ = self._cset.popitem(last=False)
            self.stats.inc("evictions_cset")
        return victim

    def invalidate(self, oid: ObjectId) -> None:
        self._queue_for(oid).pop(oid, None)

    def clear(self) -> None:
        self._regular.clear()
        self._cset.clear()
