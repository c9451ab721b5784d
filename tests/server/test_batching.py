"""Unit tests for the hot-path batching layer (DESIGN.md §14): the
propagation wire format, the ``Deployment(batching=...)`` knob, the
adaptive WAL group-commit window, and remote-read coalescing."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.objects import ObjectId, ObjectKind
from repro.core.transaction import CommitRecord
from repro.core.updates import CSetAdd, DataUpdate
from repro.core.versions import VectorTimestamp
from repro.deployment import Deployment
from repro.net.wire import (
    BATCH_HEADER_BYTES,
    RECORD_HEADER_BYTES,
    TOUCHED_BYTES,
    VTS_ENTRY_BYTES,
    ack_batch_bytes,
    decode_propagation_batch,
    encode_propagation_batch,
)
from repro.server import BatchingConfig
from repro.sim import Kernel
from repro.storage import FLUSH_MEMORY, DiskLog


def _oid(name):
    return ObjectId("c", name, ObjectKind.REGULAR)


def _record(site, seqno, seqnos, updates, touched=None):
    return CommitRecord(
        tid="t%d-%d" % (site, seqno),
        site=site,
        seqno=seqno,
        start_vts=VectorTimestamp(seqnos),
        updates=updates,
        committed_at=0.125 * seqno,
        touched=touched,
    )


def _chain(seed, n_sites=4, n_records=6):
    """A plausible propagation run: one origin, consecutive seqnos, a
    snapshot vector that drifts by a few entries per record (the shape
    delta encoding exploits), a mix of full / trimmed / empty records."""
    rng = random.Random(seed)
    site = rng.randrange(n_sites)
    seqnos = [rng.randrange(50) for _ in range(n_sites)]
    first_seqno = rng.randrange(1, 100)
    records = []
    for k in range(n_records):
        for _ in range(rng.randrange(3)):
            seqnos[rng.randrange(n_sites)] += rng.randrange(1, 4)
        shape = rng.randrange(3)
        if shape == 0:
            updates = [DataUpdate(_oid("x%d" % k), b"v" * rng.randrange(1, 50))]
            touched = None
        elif shape == 1:
            updates = [CSetAdd(ObjectId("c", "s", ObjectKind.CSET), k)]
            touched = None
        else:
            # Trimmed for a non-replica destination: header only.
            updates = []
            touched = ("c",)
        records.append(
            _record(site, first_seqno + k, tuple(seqnos), updates, touched)
        )
    return records


def _assert_same(decoded, records):
    assert len(decoded) == len(records)
    for d, r in zip(decoded, records):
        assert d.tid == r.tid
        assert d.site == r.site
        assert d.seqno == r.seqno
        assert d.start_vts == r.start_vts
        assert d.updates == r.updates
        assert d.committed_at == r.committed_at
        assert d.touched == r.touched


class TestWireFormat:
    def test_roundtrip_basic(self):
        records = _chain(1)
        entries, size = encode_propagation_batch(records)
        assert size > 0
        _assert_same(decode_propagation_batch(entries), records)

    def test_delta_encoding_is_smaller_for_similar_snapshots(self):
        # Consecutive commits at one site share almost their whole
        # snapshot vector; the delta wire must capitalize on it.
        records = [
            _record(0, 10 + k, (10 + k, 7, 3, 9), [], touched=("c",))
            for k in range(8)
        ]
        _, size_delta = encode_propagation_batch(records)
        # What the same batch costs with every snapshot sent absolutely.
        size_abs = BATCH_HEADER_BYTES + len(records) * (
            RECORD_HEADER_BYTES + 4 * VTS_ENTRY_BYTES + TOUCHED_BYTES
        )
        assert size_delta < size_abs

    def test_single_record_batch_is_absolute(self):
        records = _chain(2, n_records=1)
        entries, _ = encode_propagation_batch(records)
        # The lone record's vts field is the absolute tuple, not a delta.
        assert entries[0][3] == records[0].start_vts._seqnos
        _assert_same(decode_propagation_batch(entries), records)

    def test_identical_snapshots_produce_empty_deltas(self):
        records = [
            _record(1, 5 + k, (4, 4, 4), [], touched=("c",)) for k in range(3)
        ]
        entries, _ = encode_propagation_batch(records)
        assert entries[1][3] == () and entries[2][3] == ()
        _assert_same(decode_propagation_batch(entries), records)

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_random_chains(self, seed):
        rng = random.Random(seed)
        records = _chain(
            seed, n_sites=rng.randint(1, 8), n_records=rng.randint(1, 12)
        )
        entries, size = encode_propagation_batch(records)
        assert size > 0
        _assert_same(decode_propagation_batch(entries), records)

    def test_ack_batch_bytes_scale_linearly(self):
        assert ack_batch_bytes(1) < ack_batch_bytes(2) < ack_batch_bytes(100)
        assert ack_batch_bytes(10) - ack_batch_bytes(9) == ack_batch_bytes(
            2
        ) - ack_batch_bytes(1)


class TestBatchingConfig:
    def test_coerce(self):
        assert BatchingConfig.coerce(None) is None
        assert BatchingConfig.coerce(False) is None
        assert BatchingConfig.coerce(True) == BatchingConfig()
        cfg = BatchingConfig(wal_window=0.002)
        assert BatchingConfig.coerce(cfg) is cfg
        assert BatchingConfig.coerce({"max_batch": 8}) == BatchingConfig(
            max_batch=8
        )

    def test_coerce_rejects_garbage(self):
        with pytest.raises(TypeError):
            BatchingConfig.coerce("yes")

    def test_validation(self):
        with pytest.raises(ValueError):
            BatchingConfig(wal_window=-1.0)
        with pytest.raises(ValueError):
            BatchingConfig(max_batch=0)

    def test_deployment_knob(self):
        world = Deployment(n_sites=2, flush_latency=FLUSH_MEMORY, seed=1)
        assert world.batching is None
        world = Deployment(
            n_sites=2, flush_latency=FLUSH_MEMORY, seed=1, batching=True
        )
        assert world.batching == BatchingConfig()
        for server in world.servers:
            assert server.batching == BatchingConfig()


class TestAdaptiveWalWindow:
    def _log(self, window):
        kernel = Kernel()
        return kernel, DiskLog(kernel, flush_latency=0.010, flush_window=window)

    def test_busy_window_absorbs_racing_background_record(self):
        kernel, log = self._log(0.002)
        durable = {}

        def writer(delay, key, payload):
            yield kernel.timeout(delay)
            yield log.append(payload)
            durable[key] = kernel.now

        kernel.spawn(writer(0.0, "warm", {"kind": "remote_apply", "n": 0}))
        # Both arrive just after the warm flush ends (busy log): the lone
        # leader holds the window open and the chaser rides its flush.
        kernel.spawn(writer(0.011, "leader", {"kind": "remote_apply", "n": 1}))
        kernel.spawn(writer(0.012, "chaser", {"kind": "remote_apply", "n": 2}))
        kernel.run(until=1.0)
        assert durable["leader"] == durable["chaser"] == pytest.approx(0.023)
        assert log.stats.flushes == 2
        assert log.stats.max_batch == 2

    def test_local_commit_skips_the_window(self):
        # A client is blocked on the commit ack, so the window must not
        # add latency: the lone local-commit record flushes immediately.
        kernel, log = self._log(0.002)
        durable = {}

        def writer(delay, key, payload):
            yield kernel.timeout(delay)
            yield log.append(payload)
            durable[key] = kernel.now

        kernel.spawn(writer(0.0, "warm", {"kind": "remote_apply", "n": 0}))
        kernel.spawn(writer(0.011, "commit", {"kind": "local_commit", "n": 1}))
        kernel.run(until=1.0)
        assert durable["commit"] == pytest.approx(0.021)

    def test_idle_log_does_not_wait(self):
        # No recent flush: the very first record flushes immediately even
        # though it is a lone background record.
        kernel, log = self._log(0.002)

        def writer():
            yield log.append({"kind": "remote_apply", "n": 0})
            return kernel.now

        assert kernel.run_process(writer(), until=1.0) == pytest.approx(0.010)

    def test_window_zero_is_legacy_behavior(self):
        kernel, log = self._log(0.0)
        durable = {}

        def writer(delay, key, payload):
            yield kernel.timeout(delay)
            yield log.append(payload)
            durable[key] = kernel.now

        kernel.spawn(writer(0.0, "warm", {"kind": "remote_apply", "n": 0}))
        kernel.spawn(writer(0.011, "leader", {"kind": "remote_apply", "n": 1}))
        kernel.spawn(writer(0.012, "chaser", {"kind": "remote_apply", "n": 2}))
        kernel.run(until=1.0)
        # Without the window the leader flushes alone; the chaser (which
        # arrived during the leader's flush) lands in the next flush.
        assert durable["leader"] == pytest.approx(0.021)
        assert durable["chaser"] == pytest.approx(0.031)


def _run_readers(batching, n_readers=3):
    """Readers at site 0 concurrently fetch the same remote-preferred
    object: with coalescing on, the duplicates ride the leader's RPC."""
    world = Deployment(
        n_sites=2, flush_latency=FLUSH_MEMORY, seed=5, batching=batching
    )
    # Replicated only at site 1: site 0's readers must fetch remotely.
    world.create_container("remote", preferred_site=1, replica_sites=[1])
    oid = world.config.container("remote").new_id()
    world.preload({oid: b"remote-value"})
    values = []

    def reader(client):
        tx = client.start_tx()
        value = yield from client.read(tx, oid)
        yield from client.commit(tx)
        values.append(value)

    for _ in range(n_readers):
        world.kernel.spawn(reader(world.new_client(0)))
    world.run(until=10.0)
    world.settle(2.0)
    assert values == [b"remote-value"] * n_readers
    return world.servers[0].stats.coalesced_reads


class TestReadCoalescing:
    def test_duplicate_inflight_reads_coalesce(self):
        assert _run_readers(True) >= 1

    def test_batching_off_never_coalesces(self):
        assert _run_readers(None) == 0

    def test_multiread_fans_out_batched_gets(self):
        world = Deployment(
            n_sites=3, flush_latency=FLUSH_MEMORY, seed=6, batching=True
        )
        oids, expect = [], []
        for site in range(3):
            world.create_container("c%d" % site, preferred_site=site)
            for k in range(2):
                oid = world.config.container("c%d" % site).new_id()
                oids.append(oid)
                expect.append(("s%d-%d" % (site, k)).encode())
        world.preload(dict(zip(oids, expect)))
        out = {}

        def reader(client):
            tx = client.start_tx()
            values = yield from client.multiread(tx, oids)
            yield from client.commit(tx)
            out["values"] = values

        world.kernel.spawn(reader(world.new_client(0)))
        world.run(until=10.0)
        assert out["values"] == expect
