"""Stateful property test: ObjectCache against a reference implementation."""

from collections import Counter, OrderedDict

from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.core import ObjectId, ObjectKind
from repro.storage import ObjectCache

KEYS = [ObjectId("c", "r%d" % i, ObjectKind.REGULAR) for i in range(3)] + [
    ObjectId("c", "s%d" % i, ObjectKind.CSET) for i in range(3)
]


class ReferenceCache:
    """The cache as first written -- membership test, store, move to the
    end, a probe each -- which ``ObjectCache`` must match operation for
    operation: return values, the LRU order of both queues, every stat."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.regular = OrderedDict()
        self.cset = OrderedDict()
        self.stats = Counter()

    def queue_for(self, oid):
        return self.cset if oid.kind is ObjectKind.CSET else self.regular

    def get(self, oid):
        queue = self.queue_for(oid)
        if oid in queue:
            queue.move_to_end(oid)
            self.stats["hits"] += 1
            return True, queue[oid]
        self.stats["misses"] += 1
        return False, None

    def put(self, oid, value):
        queue = self.queue_for(oid)
        if oid in queue:
            queue[oid] = value
            queue.move_to_end(oid)
            return None
        queue[oid] = value
        if len(self.regular) + len(self.cset) <= self.capacity:
            return None
        if self.regular:  # prefer evicting regular objects (paper §6)
            self.stats["evictions_regular"] += 1
            return self.regular.popitem(last=False)[0]
        self.stats["evictions_cset"] += 1
        return self.cset.popitem(last=False)[0]

    def invalidate(self, oid):
        self.queue_for(oid).pop(oid, None)


class CacheMachine(RuleBasedStateMachine):
    # Capacity 1 evicts on every insert; at 2 the csets alone fill the
    # cache, so csets get evicted too; at 4 only regular objects do.
    @initialize(capacity=st.sampled_from([1, 2, 4]))
    def build(self, capacity):
        self.cache = ObjectCache(capacity)
        self.reference = ReferenceCache(capacity)

    @rule(oid=st.sampled_from(KEYS), value=st.integers())
    def put(self, oid, value):
        assert self.cache.put(oid, value) == self.reference.put(oid, value)

    @rule(oid=st.sampled_from(KEYS))
    def get(self, oid):
        assert self.cache.get(oid) == self.reference.get(oid)

    @rule(oid=st.sampled_from(KEYS))
    def invalidate(self, oid):
        self.cache.invalidate(oid)
        self.reference.invalidate(oid)

    @invariant()
    def lru_order_matches(self):
        assert list(self.cache._regular.items()) == list(self.reference.regular.items())
        assert list(self.cache._cset.items()) == list(self.reference.cset.items())
        assert len(self.cache) <= self.cache.capacity

    @invariant()
    def membership_matches(self):
        for oid in KEYS:
            assert (oid in self.cache) == (oid in self.reference.queue_for(oid))

    @invariant()
    def stats_match(self):
        for name in ("hits", "misses", "evictions_regular", "evictions_cset"):
            assert getattr(self.cache.stats, name) == self.reference.stats[name]


TestCacheStateful = CacheMachine.TestCase
