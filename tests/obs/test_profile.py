"""Unit tests for the space-saving sketch and the access profiler."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.objects import ObjectId
from repro.obs import AccessProfiler, SpaceSaving


class NaiveSpaceSaving:
    """The sketch's definition, executed literally: on a miss with the
    table full, scan for the minimum ``(count, insertion_seq)`` entry,
    evict it, and give the newcomer its count + 1 with that count as the
    error.  The reference the heap-backed :class:`SpaceSaving` must
    match observation for observation."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.entries = {}  # key -> [count, error, seq, payload]
        self.seq = self.evictions = self.observations = 0

    def observe(self, key, field=None, owner=None):
        self.observations += 1
        entry = self.entries.get(key)
        if entry is None:
            self.seq += 1
            base = 0
            if len(self.entries) >= self.capacity:
                victim = min(self.entries, key=lambda k: (self.entries[k][0], self.entries[k][2]))
                base = self.entries.pop(victim)[0]
                self.evictions += 1
            entry = self.entries[key] = [base, base, self.seq, {}]
        entry[0] += 1
        for name in (field, owner if owner is None else ("owner_ops" if owner else "nonowner_ops")):
            if name is not None:
                entry[3][name] = entry[3].get(name, 0) + 1

    def top(self):
        ranked = sorted(self.entries.items(), key=lambda kv: (-kv[1][0], str(kv[0])))
        return [
            dict({"key": str(k), "count": e[0], "error": e[1]}, **dict(sorted(e[3].items())))
            for k, e in ranked
        ]


#: Skewed streams (few keys recur: counts grow, heap heads go stale) and
#: uniform ones over many keys (almost every observation evicts).
streams = st.one_of(
    st.lists(st.integers(0, 400), max_size=400),
    st.lists(st.integers(0, 12) | st.integers(0, 400), max_size=400),
    st.lists(st.sampled_from([0, 0, 0, 1, 1, 2, 3, 5, 8, 13, 21, 34]), max_size=400),
)


class TestSpaceSaving:
    def test_exact_below_capacity(self):
        sketch = SpaceSaving(capacity=8)
        for _ in range(5):
            sketch.observe("a", "reads")
        for _ in range(3):
            sketch.observe("b", "writes")
        assert sketch.get("a") == {"key": "a", "count": 5, "error": 0, "reads": 5}
        assert sketch.get("b")["count"] == 3
        assert sketch.evictions == 0

    def test_heavy_hitter_survives_churn(self):
        sketch = SpaceSaving(capacity=4)
        for i in range(200):
            sketch.observe("hot")
            sketch.observe("cold-%d" % i)  # 200 one-off keys force churn
        assert len(sketch) == 4
        assert sketch.evictions > 0
        top = sketch.top(1)[0]
        assert top["key"] == "hot"
        # Space-saving guarantee: count overestimates by at most error,
        # and the true count is within [count - error, count].
        assert top["count"] - top["error"] <= 200 <= top["count"]

    def test_eviction_is_deterministic(self):
        def run():
            sketch = SpaceSaving(capacity=3)
            for key in ("a", "b", "a", "c", "d", "e", "a", "d", "f"):
                sketch.observe(key)
            return sketch.top()

        assert run() == run()

    @given(
        capacity=st.integers(1, 16),
        stream=streams,
        fields=st.lists(st.sampled_from([None, "reads", "writes"]), min_size=1, max_size=7),
        owners=st.lists(st.sampled_from([None, True, False]), min_size=1, max_size=5),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_naive_min_scan_reference(self, capacity, stream, fields, owners):
        sketch, naive = SpaceSaving(capacity), NaiveSpaceSaving(capacity)
        for i, key in enumerate(stream):
            field, owner = fields[i % len(fields)], owners[i % len(owners)]
            sketch.observe(key, field, owner=owner)
            naive.observe(key, field, owner=owner)
        assert sketch.top() == naive.top()  # keys, counts, errors, payloads
        assert (sketch.evictions, sketch.observations) == (naive.evictions, naive.observations)
        assert len(sketch) == len(naive.entries) <= capacity
        # One heap entry per live key, however many were refreshed.
        assert len(sketch._heap) == len(sketch)

    def test_owner_split(self):
        sketch = SpaceSaving(capacity=4)
        sketch.observe("k", "reads", owner=True)
        sketch.observe("k", "writes", owner=False)
        entry = sketch.get("k")
        assert entry["owner_ops"] == 1
        assert entry["nonowner_ops"] == 1


class TestAccessProfiler:
    def test_container_counters(self):
        profiler = AccessProfiler(site=1)
        oid = ObjectId("c1", "x")
        other = ObjectId("c2", "y")
        profiler.record_read(oid, owner=True)
        profiler.record_write(oid, owner=False)
        profiler.record_conflict(oid)
        profiler.record_remote_apply(other)
        snap = profiler.as_dict()
        assert snap["site"] == 1
        assert snap["containers"]["c1"] == {
            "reads": 1, "writes": 1, "conflicts": 1, "remote_applies": 0,
            "owner_ops": 1, "nonowner_ops": 1,
        }
        assert snap["containers"]["c2"]["remote_applies"] == 1
        assert snap["observations"] == 4
