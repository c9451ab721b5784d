"""In-memory object cache with cset-preferring eviction (paper §6).

"The entries in the in-memory cache are evicted on an LRU basis.  Since it
is expensive to reconstruct csets from the log, the eviction policy
prefers to evict regular objects rather than csets."

Implemented as two LRU queues (regular and cset); eviction drains the
regular queue first and touches csets only when no regular entry remains.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Optional, Tuple

from ..core.objects import ObjectId, ObjectKind
from ..obs.metrics import CounterView, MetricsRegistry


class CacheStats(CounterView):
    """The cache's registry counters, labelled with its site:
    ``cache.hits``, ``cache.misses``, ``cache.evictions_regular`` and
    ``cache.evictions_cset``."""

    PREFIX = "cache"
    FIELDS = ("hits", "misses", "evictions_regular", "evictions_cset")

    __slots__ = ()

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class ObjectCache:
    """LRU cache keyed by ObjectId, preferring to evict regular objects."""

    def __init__(
        self, capacity: int, registry: Optional[MetricsRegistry] = None, site: int = 0
    ):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._regular: "OrderedDict[ObjectId, Any]" = OrderedDict()
        self._cset: "OrderedDict[ObjectId, Any]" = OrderedDict()
        #: Counts live in ``registry`` (the deployment's, or a private
        #: one for a standalone cache), labelled ``site=<site>``.
        self.stats = CacheStats(registry, site=site)
        counter = self.stats._counter
        self._hits = counter("hits")
        self._misses = counter("misses")
        self._evictions_regular = counter("evictions_regular")
        self._evictions_cset = counter("evictions_cset")

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
            self._hits.value += 1
            return True, queue[oid]
        self._misses.value += 1
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

    def touch(self, oids) -> None:
        """``put(oid, True)`` for each of ``oids`` in order: a remote
        chunk's LRU refresh pass.  Every value a server caches is True,
        so refreshing a cached object is one move to the end."""
        regular, cset = self._regular, self._cset
        for oid in oids:
            try:
                (cset if oid.kind is ObjectKind.CSET else regular).move_to_end(oid)
            except KeyError:
                self.put(oid, True)

    def _evict(self) -> ObjectId:
        if self._regular:
            victim, _ = self._regular.popitem(last=False)
            self._evictions_regular.value += 1
        else:
            victim, _ = self._cset.popitem(last=False)
            self._evictions_cset.value += 1
        return victim

    def invalidate(self, oid: ObjectId) -> None:
        self._queue_for(oid).pop(oid, None)

    def clear(self) -> None:
        self._regular.clear()
        self._cset.clear()
