"""Unit tests for the access profiler's exact per-object counters."""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.objects import ObjectId, ObjectKind
from repro.obs import AccessProfiler
from repro.obs.profile import CONTAINER_FIELDS

#: Few containers and locals, so keys recur, counts tie and containers
#: sum over several keys of both kinds.
oids = st.builds(
    ObjectId,
    st.sampled_from(["c0", "c1", "c2"]),
    st.sampled_from(["a", "b", "k1", "k10", "k2"]),
    st.sampled_from(list(ObjectKind)),
)
observations = st.tuples(
    oids, st.sampled_from(["reads", "writes", "conflicts", "remote_applies"]), st.booleans()
)


def observe(profiler, oid, kind, owner):
    if kind == "reads":
        profiler.record_read(oid, owner)
    elif kind == "writes":
        profiler.record_write(oid, owner)
    elif kind == "conflicts":
        profiler.record_conflict(oid)
    else:
        profiler.record_remote_apply(oid)


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

    def test_owner_split(self):
        profiler = AccessProfiler(site=0)
        oid = ObjectId("c", "k")
        profiler.record_read(oid, owner=True)
        profiler.record_write(oid, owner=False)
        profiler.record_write(oid, owner=False)
        # Only the non-zero counters are reported on a hot-key entry.
        assert profiler.as_dict()["hot_keys"] == [
            {"key": "c/k#r", "count": 3, "reads": 1, "writes": 2, "owner_ops": 1, "nonowner_ops": 2}
        ]

    def test_heavy_hitter_is_exact_under_churn(self):
        profiler = AccessProfiler(site=0)
        hot = ObjectId("c", "hot")
        for i in range(200):
            profiler.record_remote_apply(hot)
            profiler.record_remote_apply(ObjectId("c", "cold-%d" % i))  # 200 one-off keys
        snap = profiler.as_dict(top=2)
        assert snap["tracked_keys"] == 201
        assert snap["hot_keys"] == [
            {"key": "c/hot#r", "count": 200, "remote_applies": 200},
            {"key": "c/cold-0#r", "count": 1, "remote_applies": 1},
        ]

    @given(stream=st.lists(observations, max_size=300), top=st.integers(0, 12))
    @settings(max_examples=200, deadline=None)
    def test_matches_counter_reference(self, stream, top):
        profiler = AccessProfiler(site=3)
        fields = Counter()  # (oid, field) -> occurrences
        for oid, kind, owner in stream:
            observe(profiler, oid, kind, owner)
            fields[oid, kind] += 1
            if kind in ("reads", "writes"):
                fields[oid, "owner_ops" if owner else "nonowner_ops"] += 1
        seen = Counter(oid for oid, _kind, _owner in stream)
        containers = {}
        for (oid, field), n in fields.items():
            totals = containers.setdefault(oid.container, dict.fromkeys(CONTAINER_FIELDS, 0))
            totals[field] += n
        ranked = sorted(seen, key=lambda oid: (-seen[oid], str(oid)))[:top]
        assert profiler.as_dict(top=top) == {
            "site": 3,
            "observations": len(stream),
            "tracked_keys": len(seen),
            "hot_keys": [
                dict(
                    {"key": str(oid), "count": seen[oid]},
                    **{f: fields[oid, f] for f in CONTAINER_FIELDS if fields[oid, f]},
                )
                for oid in ranked
            ],
            "containers": containers,
        }
