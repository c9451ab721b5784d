"""Preloaded state as one shared, copy-on-write image.

``Deployment.preload`` gives every replicating site the same read-only
history per object.  A site copies it before its first mutation --
through ``SiteHistories.history`` (append, truncation) or
``SiteHistories.gc`` -- so no step at one site may show at another.
The reference here gives every site private histories built by plain
``apply``; every query must agree with it after every step.
"""

import random
import tracemalloc

import pytest

from repro.core import (
    CSetAdd,
    CSetDel,
    DataUpdate,
    ObjectKind,
    SiteHistories,
    VectorTimestamp,
    Version,
)
from repro.core.history import SharedHistory
from repro.deployment import Deployment
from repro.errors import SnapshotTooOldError
from repro.storage import FLUSH_MEMORY

N_SITES = 3
ELEMS = "abc"


def make_world(n_sites=N_SITES):
    world = Deployment(n_sites=n_sites, flush_latency=FLUSH_MEMORY, jitter_frac=0.0)
    for site in range(n_sites):
        world.create_container("c%d" % site, preferred_site=site)
    return world


def preload_updates(oid, value):
    """The updates ``preload`` derives from a value (the forms used here)."""
    if oid.is_cset:
        return [CSetAdd(oid, elem) for elem in value]
    return [DataUpdate(oid, value)]


def outcome(query):
    try:
        value = query()
    except SnapshotTooOldError:
        return "too-old"
    return value.counts() if hasattr(value, "counts") else value


def observe(histories, oid, vts):
    read = histories.read_cset if oid.is_cset else histories.read_regular
    return (
        outcome(lambda: read(oid, vts)),
        outcome(lambda: histories.unmodified(oid, vts)),
    )


def without_watermark(dumped):
    return {oid: dict(state, gc_vts=None) for oid, state in dumped.items()}


@pytest.mark.parametrize("seed", range(6))
def test_copy_on_write_matches_private_histories(seed):
    rng = random.Random(seed)
    world = make_world()
    client = world.new_client(0)
    oids = [client.new_id("c%d" % (i % N_SITES)) for i in range(8)]
    oids += [client.new_id("c%d" % (i % N_SITES), ObjectKind.CSET) for i in range(4)]
    values = {
        oid: ([rng.choice(ELEMS) for _ in range(3)] if oid.is_cset else b"pre-%d" % i)
        for i, oid in enumerate(oids)
    }
    world.preload(values)
    sites = [server.histories for server in world.servers]
    reference = [SiteHistories() for _ in range(N_SITES)]
    for seqno, (oid, value) in enumerate(values.items(), start=1):
        for ref in reference:
            ref.apply(preload_updates(oid, value), Version(0, seqno))
    for oid in oids:
        assert all(hists.get(oid) is sites[0].get(oid) for hists in sites)
        assert type(sites[0].get(oid)) is SharedHistory
    # Per-origin seqno counters.  A GC watermark never exceeds them and
    # every later version exceeds it, so no append lands below one.
    counter = [len(oids)] + [0] * (N_SITES - 1)

    for step in range(40):
        op = rng.choice(["append", "append", "gc", "truncate", "install", "repreload"])
        site = rng.randrange(N_SITES)
        oid = rng.choice(oids)
        if op == "append":
            origin = rng.randrange(1, N_SITES)
            counter[origin] += 1
            version = Version(origin, counter[origin])
            if oid.is_cset:
                update = rng.choice([CSetAdd, CSetDel])(oid, rng.choice(ELEMS))
            else:
                update = DataUpdate(oid, b"w-%d" % step)
            for hists in (sites[site], reference[site]):
                hists.apply([update], version)
        elif op == "gc":
            watermark = VectorTimestamp([rng.randint(0, c) for c in counter])
            fold = (lambda _oid: True) if rng.random() < 0.5 else None
            assert sites[site].gc(watermark, fold) == reference[site].gc(watermark, fold)
        elif op == "truncate":
            held = sites[site].get(oid)
            if held is None or not len(held):
                continue
            drop = rng.choice(held.versions())
            keep = [v for v in held.versions() if v != drop]
            for hists in (sites[site], reference[site]):
                hists.history(oid).truncate_versions(keep)
        elif op == "install":
            source = rng.randrange(N_SITES)
            cid = oid.container
            dumped = sites[source].export_container(cid)
            expected = reference[source].export_container(cid)
            # Only the watermark may differ: GC leaves a history it
            # does not collect shared, and a shared one keeps none.
            assert without_watermark(dumped) == without_watermark(expected)
            sites[site].install(dumped)
            reference[site].install(expected)
        else:  # re-preload an object: it applies like any other write
            value = [rng.choice(ELEMS)] if oid.is_cset else b"again-%d" % step
            world.preload({oid: value})
            counter[0] = world.servers[0].curr_seqno
            for ref in reference:
                ref.apply(preload_updates(oid, value), Version(0, counter[0]))

        probes = [VectorTimestamp(counter)] + [
            VectorTimestamp([rng.randint(0, c) for c in counter]) for _ in range(2)
        ]
        for s in range(N_SITES):
            for o in oids:
                for vts in probes:
                    assert observe(sites[s], o, vts) == observe(reference[s], o, vts), (
                        "step %d (%s): site %d, %s at %r" % (step, op, s, o, vts)
                    )


def test_shared_history_is_read_only():
    world = make_world()
    oid = world.new_client(0).new_id("c0")
    world.preload({oid: b"v"})
    shared = world.servers[1].histories.get(oid)
    with pytest.raises(TypeError, match="read-only"):
        shared.append(DataUpdate(oid, b"w"), Version(1, 1))
    with pytest.raises(TypeError, match="read-only"):
        shared.gc_before(VectorTimestamp([1, 0, 0]))
    with pytest.raises(TypeError, match="read-only"):
        shared.truncate_versions([])


def test_gc_of_an_unwritten_preload_copies_nothing():
    # A one-entry regular history has nothing to drop, so GC leaves it
    # shared; copying it there would undo the saving at the first pass.
    world = make_world()
    client = world.new_client(0)
    oids = [client.new_id("c%d" % (i % N_SITES)) for i in range(30)]
    world.preload({oid: b"v%d" % i for i, oid in enumerate(oids)})
    shared = {oid: world.servers[0].histories.get(oid) for oid in oids}
    for server in world.servers:
        assert server.gc_histories() == 0
    for server in world.servers:
        for oid in oids:
            assert server.histories.get(oid) is shared[oid]
    assert world.servers[0].histories.dump() == {}


def test_gc_copies_a_shared_history_only_to_collect_it():
    world = make_world()
    client = world.new_client(0)
    cset = client.new_id("c0", ObjectKind.CSET)
    world.preload({cset: ["a", "b"]})
    shared = world.servers[0].histories.get(cset)
    watermark = world.servers[0].committed_vts
    hists = world.servers[0].histories
    assert hists.gc(watermark) == 0  # not folding: stays shared
    assert hists.get(cset) is shared
    assert hists.gc(watermark, fold_cset=lambda oid: True) == 2
    assert hists.get(cset) is not shared
    assert world.servers[1].histories.get(cset) is shared
    for server in world.servers:
        assert server.histories.read_cset(cset, watermark).counts() == {"a": 1, "b": 1}


def preload_footprint(n_sites, n=4000):
    """Traced bytes per object that ``preload`` of ``n`` regular
    objects leaves behind on ``n_sites`` sites."""
    world = make_world(n_sites)
    client = world.new_client(0)
    values = {client.new_id("c0"): b"v" for _ in range(n)}
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        world.preload(values)
        per_object = (tracemalloc.get_traced_memory()[0] - before) / n
    finally:
        tracemalloc.stop()
    return world, list(values), per_object


def test_preload_footprint():
    _world, _oids, two = preload_footprint(2)
    world, oids, four = preload_footprint(4)
    assert four <= 900, "%.0f bytes per preloaded object on 4 sites" % four
    per_site = (four - two) / 2
    assert per_site <= 100, "%.0f bytes per preloaded object per site" % per_site
    for server in world.servers:
        assert not [v for v in server._records_by_version if v.site == 0]
        assert server.committed_vts[0] == len(oids)
    for oid in oids[:50]:
        assert all(
            server.histories.get(oid) is world.servers[0].histories.get(oid)
            for server in world.servers
        )
