"""Unit tests for the hot-path batching layer (DESIGN.md §14): the
propagation wire format, its two size constants and the adaptive WAL
group-commit window."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.objects import ObjectId, ObjectKind
from repro.core.transaction import CommitRecord
from repro.core.updates import CSetAdd, DataUpdate
from repro.core.versions import VectorTimestamp, Version
from repro.bench.calibration import walter_costs
from repro.deployment import Deployment
from repro.net import Topology
from repro.net.wire import (
    BATCH_HEADER_BYTES,
    RECORD_HEADER_BYTES,
    TOUCHED_BYTES,
    VTS_ENTRY_BYTES,
    FRONTIER_BYTES,
    decode_propagation_batch,
    encode_propagation_batch,
)
from repro.server import WalterServer
from repro.sim import Kernel
from repro.storage import FLUSH_EC2, FLUSH_MEMORY, DiskLog, SiteStorage


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

    def test_frontier_casts_are_constant_size(self):
        """ACK, DS-DURABLE and VISIBLE carry one frontier whatever the
        batch they acknowledge holds: 88 bytes for one record or many."""
        assert FRONTIER_BYTES == BATCH_HEADER_BYTES + 24 == 88
        world = Deployment(n_sites=2, flush_latency=FLUSH_MEMORY, jitter_frac=0.0)
        world.create_container("c0", preferred_site=0)
        sizes = {}
        for server in world.servers:
            real_cast = server.cast

            def cast(dst, method, real_cast=real_cast, **args):
                if method in ("propagate_ack", "ds_durable", "visible_ack"):
                    sizes.setdefault(method, set()).add(args["size_bytes"])
                return real_cast(dst, method, **args)

            server.cast = cast
        clients = [world.new_client(0) for _ in range(12)]

        def commit(client):
            tx = client.start_tx()
            yield from client.write(tx, client.new_id("c0"), b"v")
            yield from client.commit(tx)

        world.run_process(commit(clients[0]), within=10.0)  # a batch of one
        for client in clients[1:]:  # then one batch of eleven
            world.kernel.spawn(commit(client), name="commit")
        world.settle(2.0)
        assert world.server(1).committed_vts[0] == 12
        assert world.server(0).stats.batches_sent >= 2
        assert sizes == {m: {88} for m in ("propagate_ack", "ds_durable", "visible_ack")}


class TestBatchingConfig:
    def test_coerce_rejects_garbage(self):
        # Sizes are constants now: a dict or a size-carrying object is
        # refused, not silently ignored.
        for batching in ("yes", {"max_batch": 8}, 1.0):
            with pytest.raises(ValueError, match="only None or True"):
                Deployment(n_sites=2, batching=batching)

    def test_off_position_is_gone(self):
        # ``False`` used to select the per-record wire; the error says
        # that wire was removed instead of silently batching anyway.
        with pytest.raises(ValueError, match="removed"):
            Deployment(n_sites=2, batching=False)

    def test_single_record_handlers_are_gone(self):
        # A record batch and three frontiers are the whole wire; a
        # per-record handler (or a per-record ack batch) growing back
        # would be a second propagation path.
        assert hasattr(WalterServer, "on_propagate_batch")
        assert not hasattr(WalterServer, "on_propagate")
        for name in ("propagate_ack", "ds_durable", "visible_ack"):
            assert hasattr(WalterServer, "on_" + name)
            assert not hasattr(WalterServer, "on_%s_batch" % name)

    def test_per_record_appliers_are_gone(self):
        # Fresh batches, parked runs and recovery deliveries all go
        # through ``_apply_run``; a per-record applier
        # growing back would be a second remote-apply path.
        assert hasattr(WalterServer, "_apply_run")
        for name in ("_apply_remote", "_apply_remote_inner"):
            assert not hasattr(WalterServer, name)

    def test_deployment_knob(self):
        # The knob selects nothing: unset and ``True`` are the same
        # deployment, whose sizes are the two constants.
        for batching in (None, True):
            world = Deployment(
                n_sites=2, flush_latency=FLUSH_MEMORY, seed=1, batching=batching
            )
            assert not hasattr(world, "batching")
            for server, storage in zip(world.servers, world.storages):
                assert server.MAX_BATCH == 512
                assert storage.log.flush_window == SiteStorage.WAL_WINDOW == 0.0005


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

        kernel.spawn(writer(0.0, "warm", ("remote_apply", 0)))
        # Both arrive just after the warm flush ends (busy log): the lone
        # leader holds the window open and the chaser rides its flush.
        kernel.spawn(writer(0.011, "leader", ("remote_apply", 1)))
        kernel.spawn(writer(0.012, "chaser", ("remote_apply", 2)))
        kernel.run(until=1.0)
        assert durable["leader"] == durable["chaser"] == pytest.approx(0.023)
        assert log.stats.flushes == 2
        assert log.stats.max_batch == 2

    def test_local_commit_skips_the_window(self):
        # A client is blocked on the commit ack, so the window must not
        # add latency: the lone local-commit record flushes immediately.
        kernel, log = self._log(0.002)
        durable = {}

        def writer(delay, key, payload, commit_tid=None):
            yield kernel.timeout(delay)
            yield log.append(payload, commit_tid=commit_tid)
            durable[key] = kernel.now

        kernel.spawn(writer(0.0, "warm", ("remote_apply", 0)))
        kernel.spawn(writer(0.011, "commit", ("local_commit", 1), commit_tid="t1"))
        kernel.run(until=1.0)
        assert durable["commit"] == pytest.approx(0.021)

    def test_idle_log_does_not_wait(self):
        # No recent flush: the very first record flushes immediately even
        # though it is a lone background record.
        kernel, log = self._log(0.002)

        def writer():
            yield log.append(("remote_apply", 0))
            return kernel.now

        assert kernel.run_process(writer(), until=1.0) == pytest.approx(0.010)

    def test_window_zero_is_legacy_behavior(self):
        kernel, log = self._log(0.0)
        durable = {}

        def writer(delay, key, payload):
            yield kernel.timeout(delay)
            yield log.append(payload)
            durable[key] = kernel.now

        kernel.spawn(writer(0.0, "warm", ("remote_apply", 0)))
        kernel.spawn(writer(0.011, "leader", ("remote_apply", 1)))
        kernel.spawn(writer(0.012, "chaser", ("remote_apply", 2)))
        kernel.run(until=1.0)
        # Without the window the leader flushes alone; the chaser (which
        # arrived during the leader's flush) lands in the next flush.
        assert durable["leader"] == pytest.approx(0.021)
        assert durable["chaser"] == pytest.approx(0.031)


class TestApplyConvoy:
    def test_remote_appliers_never_convoy_local_commits(self):
        """8 uniform sites, write-only local commits: the 7 remote
        batches reach a site at the same instant (batched acks make
        every origin's cycle rigid) and their appliers take the commit
        lock back to back.  ``APPLY_CHUNK`` bounds each turn, so a local
        commit queued behind them slips no more than one WAL flush step.
        At ``APPLY_CHUNK = 512`` the tail of this run is 12-14 ms."""
        warm_up, until = 0.35, 0.5  # warm-up covers commit -> visible everywhere
        world = Deployment(
            n_sites=8,
            topology=Topology.uniform(8, rtt_ms=80.0),
            costs=walter_costs("ec2"),
            flush_latency=FLUSH_EC2,
            seed=23,
        )
        by_site = {}
        for site in range(8):
            container = world.create_container("c%d" % site, preferred_site=site)
            by_site[site] = [container.new_id() for _ in range(250)]
        world.preload({o: b"x" * 100 for oids in by_site.values() for o in oids})
        waits = []

        def writer(client, rng):
            local = by_site[client.site.id]
            while True:
                start = world.kernel.now
                tx = client.start_tx()
                yield from client.write(tx, rng.choice(local), b"y" * 100, last=True)
                if tx.status == "COMMITTED" and start >= warm_up:
                    waits.append(world.kernel.now - start)

        for index in range(8 * 12):
            world.kernel.spawn(
                writer(world.new_client(index // 12), random.Random("convoy:%d" % index))
            )
        world.run(until=until)
        waits.sort()
        assert len(waits) > 3000
        assert waits[int(0.99 * len(waits))] <= 0.006
        # Three flush periods plus the commit RPC's own CPU and LAN hop.
        assert waits[-1] <= 3 * FLUSH_EC2 + 0.0005


def _commit_one(world, site, oid, value=b"v"):
    def op(client):
        tx = client.start_tx()
        yield from client.write(tx, oid, value)
        status = yield from client.commit(tx)
        assert status == "COMMITTED"

    world.run_process(op(world.new_client(site)))
    return Version(site, world.servers[site].curr_seqno)


def _count_decodes(monkeypatch):
    """Patch the receive path's decoder to log each decode's length."""
    from repro.server import propagation

    decodes = []

    def counting(entries):
        decodes.append(len(entries))
        return decode_propagation_batch(entries)

    monkeypatch.setattr(propagation, "decode_propagation_batch", counting)
    return decodes


class TestDecodeSharing:
    def test_full_replication_destinations_share_one_decode(self, monkeypatch):
        decodes = _count_decodes(monkeypatch)
        world = Deployment(
            topology=Topology.uniform(8, rtt_ms=80.0),
            flush_latency=FLUSH_MEMORY,
            seed=3,
        )
        world.create_container("c", preferred_site=0)
        version = _commit_one(world, 0, world.config.container("c").new_id())
        world.settle(2.0)
        # One payload, seven destinations, one decode.
        assert decodes == [1]
        applied = [world.servers[s]._records_by_version[version] for s in range(1, 8)]
        assert all(record is applied[0] for record in applied)
        # The origin keeps its own record; the wire copy is a rebuild.
        assert applied[0] is not world.servers[0]._records_by_version[version]
        assert applied[0].updates == world.servers[0]._records_by_version[version].updates

    def test_trimmed_destination_gets_its_own_records(self):
        world = Deployment(
            n_sites=3, flush_latency=FLUSH_MEMORY, seed=3, replication=2
        )
        container = world.create_container("c", preferred_site=0)
        outsider = next(s for s in range(3) if not container.replicated_at(s))
        replica = next(s for s in (1, 2) if container.replicated_at(s))
        version = _commit_one(world, 0, container.new_id())
        world.settle(2.0)
        full = world.servers[replica]._records_by_version[version]
        trimmed = world.servers[outsider]._records_by_version[version]
        assert full is not trimmed
        assert len(full.updates) == 1
        assert trimmed.updates == [] and trimmed.touched == ("c",)

    def test_equal_trims_share_one_decode(self, monkeypatch):
        decodes = _count_decodes(monkeypatch)
        world = Deployment(
            n_sites=4, flush_latency=FLUSH_MEMORY, seed=3, replication=2
        )
        container = world.create_container("c", preferred_site=0)
        replica = next(s for s in range(1, 4) if container.replicated_at(s))
        outsiders = [s for s in range(4) if not container.replicated_at(s)]
        assert len(outsiders) == 2
        version = _commit_one(world, 0, container.new_id())
        world.settle(2.0)
        # Two distinct trims -- the whole record, its bare header -- so
        # two payloads and two decodes for three destinations.
        assert decodes == [1, 1]
        header = world.servers[outsiders[0]]._records_by_version[version]
        assert all(world.servers[s]._records_by_version[version] is header for s in outsiders)
        assert header.updates == [] and header.touched == ("c",)
        full = world.servers[replica]._records_by_version[version]
        assert full is not header and len(full.updates) == 1

    def test_only_the_entries_pickle(self):
        import pickle

        from repro.server.propagation import PropagationBatch

        records = _chain(4)
        batch = PropagationBatch(encode_propagation_batch(records)[0])
        assert batch.records() is batch.records()  # decoded once, kept
        shipped = pickle.loads(pickle.dumps(batch))
        assert shipped._records is None  # a worker decodes for itself
        _assert_same(shipped.records(), records)
