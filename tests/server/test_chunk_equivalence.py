"""Chunk-at-a-time replication is a regrouping, not a behaviour change.

The receive path plans, applies, logs and counts remote records a chunk
at a time (``_apply_chunk``) and commits DS-durable records a run at a
time (``_commit_remote_run``).  Both must leave a server exactly where
record-at-a-time processing leaves it, so the same inputs are driven
twice -- ``APPLY_CHUNK`` 1 against 16 for PROPAGATE, one DS-DURABLE
frontier per record against one per origin for DS-DURABLE -- and
everything a later reader could observe is compared: histories, clocks,
the record index, WAL records in order, LRU order, the access profile,
the counters and the frontiers every ACK cast named.
"""

import types
from unittest import mock

import pytest

from repro.core.objects import ObjectKind
from repro.core.transaction import CommitRecord
from repro.core.updates import CSetAdd, CSetDel, DataUpdate
from repro.core.versions import VectorTimestamp, Version
from repro.deployment import Deployment
from repro.net.wire import encode_propagation_batch
from repro.server.propagation import PropagationBatch, PropagationMixin
from repro.storage import FLUSH_MEMORY

FULL = dict(n_sites=3)
SHARDED = dict(n_sites=3, shards=2, replication=2)  # 6 logical sites, trimmed wire
RECEIVER = 1


def build(flush_latency, **deploy):
    # Traced, so the receiver keeps the access profile the fingerprint reads.
    world = Deployment(flush_latency=flush_latency, jitter_frac=0.0, tracing=True, **deploy)
    for site in range(world.n_sites):
        world.create_container("c%d" % site, preferred_site=site)
    receiver = world.server(RECEIVER)
    casts = []
    real_cast = receiver.cast
    site_of = {address: site for site, address in world.addresses.items()}

    def cast(dst, method, **args):
        if method in ("propagate_ack", "visible_ack"):
            casts.append((site_of[dst], method, args["seqno"], args["tid"]))
        real_cast(dst, method, **args)

    receiver.cast = cast
    return world, receiver, casts


def make_records(world):
    """Two origins' streams for the receiver, covering what the chunk
    code treats specially: several updates per record (two of them to one
    object), cset adds and a delete, a record with a causal dependency
    on the other origin, and -- in the sharded world -- updates to
    containers the receiver does not replicate, which the origin trims
    off (some records down to their header)."""
    n = world.n_sites
    a, b = 0, n - 1  # the two origins
    regs = {s: [world.config.container("c%d" % s).new_id() for _ in range(3)] for s in range(n)}
    csets = {s: world.config.container("c%d" % s).new_id(ObjectKind.CSET) for s in range(n)}

    def updates_of(origin, seqno):
        here, there = regs[RECEIVER], regs[origin]
        if seqno % 7 == 0:
            return [DataUpdate(there[0], b"only-there%d.%d" % (origin, seqno))]
        ups = [
            DataUpdate(here[seqno % 3], b"v%d.%d" % (origin, seqno)),
            DataUpdate(there[seqno % 3], b"w%d.%d" % (origin, seqno)),
        ]
        if seqno % 2:
            ups.append(DataUpdate(here[seqno % 3], b"again%d.%d" % (origin, seqno)))
        if seqno % 3 == 0:
            ups += [CSetAdd(csets[RECEIVER], "e%d" % (seqno % 4)), CSetAdd(csets[origin], seqno)]
        if seqno % 5 == 0:
            ups.append(CSetDel(csets[RECEIVER], "e%d" % (seqno % 4)))
        return ups

    def stream(origin, count, depends_on=None):
        out = []
        for seqno in range(1, count + 1):
            start = [0] * n
            if depends_on is not None and seqno > 4:
                start[depends_on] = 30
            record = CommitRecord(
                tid="t%d.%d" % (origin, seqno), site=origin, seqno=seqno,
                start_vts=VectorTimestamp(start), updates=updates_of(origin, seqno),
                committed_at=0.0,
            )
            out.append(world.server(origin)._record_for(record, RECEIVER))
        return out

    return stream(a, 40), stream(b, 24, depends_on=a)


def batch_of(records):
    entries, _size = encode_propagation_batch(records)
    return PropagationBatch(entries)


def until_applied(done):
    """Generator: wait for an apply the receiver started, given what
    ``on_propagate_batch`` or ``rpc_recovery_deliver`` returned (None
    when it finished inline)."""
    if done is not None:
        yield done


def drive_propagate(world, receiver, stream_a, stream_b):
    """Deliveries in a fixed order, each left to finish: a first batch, a
    batch beyond a gap (parks), origin b's stream (its tail parks until
    a's seqno 30 is in), a retransmission (applied prefix + the gap,
    which releases a's parked run and, behind it, b's -- one after the
    other, so the apply order does not depend on how long a lock turn
    is), and the rest with a duplicated prefix."""
    for site, name in ((0, "origin-a"), (world.n_sites - 1, "origin-b")):
        world.network.register(name, site)
    deliveries = [
        ("origin-a", stream_a[:5]),
        ("origin-a", stream_a[9:30]),
        ("origin-b", stream_b),
        ("origin-a", stream_a[:9]),
        ("origin-a", stream_a[20:]),
    ]

    def deliver():
        for src, records in deliveries:
            yield from until_applied(receiver.on_propagate_batch(src, batch_of(records)))
            yield world.kernel.timeout(0.05)

    world.run_process(deliver(), within=60.0)
    world.settle(1.0)


def wal_records(log):
    """The WAL as one ``(kind, item)`` per record, in log order: the
    commit record of a ``remote_apply`` or ``local_commit``, the version
    of a ``remote_commit``, the body of the rest (a tid, a dump, a
    finalize bound).  A grouped entry (an applied chunk, a committed
    run) contributes each of its records, so any two groupings of the
    same logged work compare equal -- and nothing else does."""
    out = []
    for kind, body in log.payloads():
        if kind in ("remote_apply", "remote_commit"):
            out += [(kind, item) for item in body]
        else:
            out.append((kind, body))
    return out


def fingerprint(receiver, casts):
    cache = receiver.storage.cache
    return {
        "histories": receiver.histories.dump(),
        "got_vts": tuple(receiver.got_vts),
        "committed_vts": tuple(receiver.committed_vts),
        "records": list(receiver._records_by_version.items()),
        "wal": wal_records(receiver.storage.log),
        "wal_record_count": receiver.storage.log.stats.records,
        "lru": (list(cache._regular), list(cache._cset)),
        "profile": receiver.profiler.as_dict(top=64),
        "stats": receiver.stats.as_dict(),
        "locked": dict(receiver.locked),
        "parked": len(receiver._pending_remote),
        "frontiers": (receiver._ack_frontier, receiver._visible_frontier, receiver._ds_through),
        "casts": casts,
    }


def propagate_fingerprint(chunk, flush_latency, deploy):
    with mock.patch.object(PropagationMixin, "APPLY_CHUNK", chunk):
        world, receiver, casts = build(flush_latency, **deploy)
        stream_a, stream_b = make_records(world)
        drive_propagate(world, receiver, stream_a, stream_b)
    assert receiver.stats.remote_applied == len(stream_a) + len(stream_b)
    return fingerprint(receiver, casts)


@pytest.mark.parametrize("deploy", [FULL, SHARDED], ids=["full", "sharded-partial"])
@pytest.mark.parametrize("flush_latency", [0.002, FLUSH_MEMORY], ids=["disk", "memory"])
def test_apply_chunk_16_equals_record_at_a_time(flush_latency, deploy):
    one = propagate_fingerprint(1, flush_latency, deploy)
    sixteen = propagate_fingerprint(16, flush_latency, deploy)
    for key in one:
        assert one[key] == sixteen[key], key
    # The scenario did what it is for: records parked and were released
    # (each origin's ACK frontier rose to its stream's end, and only
    # ever rose), and (sharded) trimmed records reached the WAL.
    for origin, count in ((0, 40), (deploy["n_sites"] * deploy.get("shards", 1) - 1, 24)):
        acked = [
            (seqno, tid) for dst, method, seqno, tid in one["casts"]
            if method == "propagate_ack" and dst == origin
        ]
        assert acked == sorted(set(acked)) and len(acked) >= 2
        assert acked[-1] == (count, "t%d.%d" % (origin, count))
    if deploy is SHARDED:
        trimmed = [
            record for kind, record in one["wal"]
            if kind == "remote_apply" and record.touched is not None
        ]
        assert trimmed and not all(r.updates for r in trimmed)


def test_apply_chunk_turns_and_clock_replacements():
    """The regrouping itself: 40 in-order records take ceil(40/16) lock
    turns, one WAL entry (holding the turn's records) per turn and one
    GotVTS replacement per origin per turn."""
    world, receiver, _casts = build(0.002, **FULL)
    stream_a, _stream_b = make_records(world)
    world.network.register("origin-a", 0)
    replaced = []
    real_with_entry = VectorTimestamp.with_entry

    def with_entry(vts, site, seqno):
        replaced.append((site, seqno))
        return real_with_entry(vts, site, seqno)

    log = receiver.storage.log
    with mock.patch.object(VectorTimestamp, "with_entry", with_entry):
        world.run_process(
            until_applied(receiver.on_propagate_batch("origin-a", batch_of(stream_a))), within=60.0
        )
    assert replaced == [(0, 16), (0, 32), (0, 40)]
    entries = log.payloads()
    assert [kind for kind, _chunk in entries] == ["remote_apply"] * 3
    assert [len(chunk) for _kind, chunk in entries] == [16, 16, 8]
    assert log.stats.records == 40


def record_at_a_time_ds_durable(self, src, site, seqno, tid):
    """The reference DS-DURABLE handler, sharing nothing with the
    production sweep (``_drain_pending``): raise the origin's DS frontier
    if it names the applied record held at its seqno, then commit
    applied records one at a time, each checked against the real
    CommittedVTS with Fig 13's committed guard (DS-durable, seqno one
    past CommittedVTS[j], startVTS covered), origin by origin until a
    pass over all of them commits nothing.  Each origin that advanced
    gets one VISIBLE frontier; an announcement that finds everything it
    covers committed is re-acked."""
    record = self._records_by_version.get(Version(site, seqno))
    if seqno > self._ds_through[site] and record is not None and record.tid == tid:
        self._ds_through[site] = seqno
    before = list(self.committed_vts)
    progress = True
    while progress:
        progress = False
        for origin, upto in enumerate(self._ds_through):
            while self.committed_vts[origin] < upto:
                nxt = self._records_by_version.get(Version(origin, self.committed_vts[origin] + 1))
                if nxt is None or not self.committed_vts.dominates(nxt.start_vts):
                    break
                self._commit_remote_run([nxt])
                progress = True
    for origin, have in enumerate(before):
        if self.committed_vts[origin] > have:
            self._cast_frontier(origin, "visible_ack", self._visible_frontier[origin])
    if before[site] == self.committed_vts[site] >= seqno:
        self._cast_frontier(site, "visible_ack", self._visible_frontier[site])


def frontier_per_record(receiver, announced):
    """One DS-DURABLE frontier per announced record, in the order given
    -- what a tid-per-record announcement said."""
    for record in announced:
        receiver.on_ds_durable("origin-a", record.site, record.seqno, record.tid)


def frontier_per_origin(receiver, announced):
    """One frontier per origin: its highest announced record."""
    top = {}
    for record in sorted(announced, key=lambda record: record.seqno):
        top[record.site] = record
    for record in top.values():
        receiver.on_ds_durable("origin-a", record.site, record.seqno, record.tid)


def ds_fingerprint(announce, handler=None):
    world, receiver, casts = build(0.002, trace=True, **FULL)
    if handler is not None:
        receiver.on_ds_durable = types.MethodType(handler, receiver)
    stream_a, stream_b = make_records(world)
    drive_propagate(world, receiver, stream_a, stream_b)
    del casts[:]
    # A 2PC participant's locks are released by the remote commit.
    tid, oid = stream_a[2].tid, world.config.container("c%d" % RECEIVER).new_id()
    vote = world.run_process(
        world.server(0).call(
            receiver.address, "prepare", tid=tid, oids=[oid],
            start_vts=VectorTimestamp.zeros(world.n_sites), coord_site=0,
        )
    )
    assert vote and receiver.locked == {oid: tid}
    # One announcement for both origins: a's records out of order (a
    # frontier covers everything below it, so the late low ones are
    # re-announcements), b's, whose tail needs a's commits first, and a
    # re-announced prefix; then the same again, all duplicates.
    announced = stream_a[3:6] + stream_a[:3] + stream_a[6:] + stream_b + stream_a[:4]
    for _ in range(2):
        announce(receiver, announced)
    world.settle(1.0)
    assert not receiver.locked and not receiver._prepared
    assert tuple(receiver.committed_vts) == tuple(receiver.got_vts)
    fp = fingerprint(receiver, casts)
    fp["site_commit_order"] = world.trace.site_commit_order[RECEIVER]
    return fp


def test_ds_durable_run_equals_record_at_a_time():
    run = ds_fingerprint(frontier_per_origin)
    fine = ds_fingerprint(frontier_per_record)
    reference = ds_fingerprint(frontier_per_record, record_at_a_time_ds_durable)
    # Announced the same way, the production sweep and the reference
    # agree on everything, VISIBLE casts included.
    for key in reference:
        assert fine[key] == reference[key], key
    run_casts = run.pop("casts")
    for key in run:
        assert run[key] == reference[key], key
    assert run["stats"]["remote_commits"] == 64
    # One VISIBLE frontier per origin per announcement, the second round
    # re-acking; the per-record announcements end on the same frontiers.
    last = [(0, "visible_ack", 40, "t0.40"), (2, "visible_ack", 24, "t2.24")]
    assert run_casts == last * 2
    assert {cast[0]: cast for cast in reference["casts"]} == {0: last[0], 2: last[1]}
