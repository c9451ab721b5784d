"""Golden-digest schedule regression (ISSUE 5 satellite).

These tests pin a cryptographic digest of the *ordered* event trace of
three fixed workloads -- a multi-site transactional run, a seeded chaos
run with faults, and a write-only fan-out that loses a batch -- against
values recorded before the optimizations they guard landed.  Any change
that perturbs the simulated schedule (event ordering, timing, RNG draw
order) changes the digest; wall-clock-only optimizations must keep it
bit-for-bit stable.

If one of these digests changes, the simulator's *behaviour* changed:
either you introduced nondeterminism, or you reordered events.  Do not
re-pin the constant without understanding exactly why -- every figure
benchmark and the chaos corpus verdicts move with it.
"""

import hashlib
import json

from repro import Topology
from repro.bench import PAYLOAD, populate, run_closed_loop, write_tx_factory
from repro.chaos import ChaosConfig, run_chaos
from repro.deployment import Deployment
from repro.obs import trace_events_jsonl

from ..server.test_chunk_equivalence import wal_records

# Digests re-recorded when network jitter moved from one shared RNG
# stream to a per-directed-link stream ("net.jitter.<src>-<dst>"), so
# a link's jitter draws do not depend on which other links' messages
# interleave with it.  The
# re-pin changed RNG draw *assignment*, not protocol behavior -- the
# chaos corpus was re-recorded in the same commit and still passes.
#
# WORKLOAD_DIGEST re-pinned once more by PR 15 (one propagation wire):
# the per-record PROPAGATE-ack / DS-DURABLE / VISIBLE casts were removed
# and every run now takes the batched wire (``propagate_batch``,
# ``propagate_ack_batch``, ``ds_durable_batch``, ``visible_ack_batch``,
# WAL window, read coalescing), which until then only
# ``Deployment(batching=True)`` selected, and ``APPLY_CHUNK`` went
# 512 -> 16.  (At ``APPLY_CHUNK = 512`` this workload hashes to
# 645cec0b...f4ff7d0, exactly what the parent produced with
# ``batching=True``: the collapse itself moved nothing on that path.)
# CHAOS_DIGEST (seed 9) did not move.
#
# WORKLOAD_DIGEST and FANOUT_DIGEST re-pinned once more when ACK,
# DS-DURABLE and VISIBLE became per-origin frontiers (``propagate_ack``,
# ``ds_durable``, ``visible_ack``): each is one 88-byte entry instead of
# 24 bytes per record, so the ack casts' transmission times, and with
# them every later event, moved; the fan-out also resends only to the
# cut-off site and ACKs a duplicate only once its apply is durable.  The
# old pins, 4b808e63...253a107f5d36e and 3052b404...bf4b23e1d3caa61,
# held on the parent.  CHAOS_DIGEST (seed 9) did not move: its verdict
# hashes outcomes and the end time, not bytes, and neither moved.
#
# WORKLOAD_DIGEST and FANOUT_DIGEST re-pinned once more when tracing
# became one level: a traced run now also records the commit-path
# milestones (``commit.*``, ``rpc.recv``, ``wal.flush``, ``client.*``)
# and parent edges that only ``tracing="deep"`` recorded before, so the
# hashed span streams gained those events.  The schedule did not move:
# both new pins are exactly what the parent's code gives for these runs
# with ``tracing="deep"``; its own pins were 318079734c...99b81f476 and
# e35d078ea8...497923daf1d.  CHAOS_DIGEST did not move.
#
# WORKLOAD_DIGEST and FANOUT_DIGEST re-pinned once more when DS
# durability became one ACK prefix: the write-only ``ds_durable`` WAL
# entry is gone, so the WAL flushes less often (2 209 -> 2 179 kernel
# events in the workload, 48 451 -> 48 423 in the fan-out, same end
# times) and the fan-out's hashed WAL lost those records; and
# ``ServerStats.as_dict()`` lost its ``gc_records_removed`` key with
# record pruning.  Both new pins are
# exactly what the parent's code gives with only that entry and that
# key removed; its own pins were 3788cdfe10...25d6460 and
# 0dbae3088c...4f2dea.  CHAOS_DIGEST did not move.
WORKLOAD_DIGEST = "59f926f17b11156413afecaf6f9164921364f7098b8e2a3b63783969cad397dd"
CHAOS_DIGEST = "88820c4d23e653fff46cd69fd8a048e88b6ab75234a59b4ae602e3ea5ea2194b"
# FANOUT_DIGEST was recorded by PR 19 on its parent's code (PR 18,
# 943e4bb), before the receive path went chunk-at-a-time: the two
# workloads above put little weight on propagation, this one is nothing
# else (duplicates, a parked PROPAGATE run and parked DS-DURABLEs
# included).  Re-pinned once when read coalescing was deleted: the digest
# hashes ``ServerStats.as_dict()``, which lost its ``coalesced_reads``
# key.  The schedule did not move: with that key kept, the tree still
# hashes to the old pin, a23634a6...ac976e5e.
FANOUT_DIGEST = "942a1cacf69f6d843f2bdbdc8de037109bc31532ba2b7d31d829c9c8dece46e6"


def run_digest_workload(tracing=True, **deploy_kwargs):
    """Run the fixed 3-site read/write workload; returns the settled
    world."""
    world = Deployment(n_sites=3, seed=1234, tracing=tracing, **deploy_kwargs)
    keys = populate(world, n_keys=120)

    def factory(client, rng):
        site = client.site.id

        def op():
            tx = client.start_tx()
            oid = rng.choice(keys.by_site[site])
            yield from client.read(tx, oid)
            if rng.random() < 0.4:
                remote = keys.by_site[(site + 1) % world.n_sites]
                yield from client.write(tx, rng.choice(remote), PAYLOAD)
            yield from client.write(tx, oid, PAYLOAD)
            status = yield from client.commit(tx)
            return status

        return op

    run_closed_loop(
        world, factory, clients_per_site=3, warmup=0.05, measure=0.3,
        name="digest", seed=99,
    )
    world.settle(1.0)
    return world


def workload_digest(**deploy_kwargs) -> str:
    """Run the fixed workload with tracing on and hash the ordered
    (time, host-site, event-kind, tid) span stream plus the final
    simulated clock."""
    world = run_digest_workload(tracing=True, **deploy_kwargs)
    stream = trace_events_jsonl(world.obs.tracer)
    blob = stream + "\nnow=%.9f" % world.kernel.now
    return hashlib.sha256(blob.encode()).hexdigest()


def run_fanout_workload():
    """Five uniform sites, write-only local fast commits (every commit
    fans out to four sites), and a 20 ms cut of one link mid-run: the
    batches and acks it drops come back as retransmissions, so site 0
    and site 1 each see duplicates and park the other's stream behind
    the gap until it fills (~120 records each)."""
    world = Deployment(
        n_sites=5, topology=Topology.uniform(5, rtt_ms=40.0), seed=4321, tracing=True
    )
    keys = populate(world, n_keys=200)

    def drop_one_batch():
        yield world.kernel.timeout(0.30)
        world.network.partition(0, 1)
        yield world.kernel.timeout(0.02)
        world.network.heal(0, 1)

    world.kernel.spawn(drop_one_batch(), name="fanout.cut")
    run_closed_loop(
        world, write_tx_factory(keys, 1), clients_per_site=6, warmup=0.05,
        measure=0.6, name="fanout", seed=7,
    )
    world.settle(3.0)
    return world


def fanout_digest() -> str:
    """Hash the fan-out run's ordered span stream, every server's
    clocks, counters and WAL (kind and version/tid of each record, in
    log order) and the final simulated clock."""
    world = run_fanout_workload()
    state = []
    for server in world.servers:
        # (kind, version or tid) of each record: the pin does not
        # depend on how entries group records.
        wal = [
            (kind, str(getattr(item, "version", item)))
            for kind, item in wal_records(server.storage.log)
        ]
        state.append(
            (
                server.site_id,
                tuple(server.got_vts),
                tuple(server.committed_vts),
                server.stats.as_dict(),
                hashlib.sha256(json.dumps(wal).encode()).hexdigest(),
            )
        )
    assert all(s.stats.remote_applied > 3900 for s in world.servers)
    assert world.server(0).stats.retransmissions and world.server(1)._drain_scan_steps
    blob = "%s\n%s\nnow=%.9f" % (
        trace_events_jsonl(world.obs.tracer),
        json.dumps(state, sort_keys=True),
        world.kernel.now,
    )
    return hashlib.sha256(blob.encode()).hexdigest()


def chaos_digest() -> str:
    """Run a fixed generated chaos schedule (faults included) and hash
    its canonical verdict, which embeds oracle results and the exact
    simulated end time."""
    result = run_chaos(ChaosConfig(seed=9))
    return hashlib.sha256(result.verdict_json().encode()).hexdigest()


class TestScheduleDigest:
    def test_workload_schedule_digest_pinned(self):
        assert workload_digest() == WORKLOAD_DIGEST

    def test_chaos_schedule_digest_pinned(self):
        assert chaos_digest() == CHAOS_DIGEST

    def test_fanout_schedule_digest_pinned(self):
        assert fanout_digest() == FANOUT_DIGEST

    def test_single_shard_digest_identical_to_unsharded(self):
        """``shards=1`` must take the exact pre-sharding code path --
        same topology object, no routing indirection -- so the pinned
        digest holds bit-for-bit with sharding explicitly requested."""
        assert workload_digest(shards=1) == WORKLOAD_DIGEST

    def test_tracing_mode_does_not_perturb_schedule(self):
        """Span tracing is recording-only: a traced run must execute the
        identical simulated schedule -- same kernel event count, same
        final clock -- as an untraced one."""
        fingerprints = {}
        for tracing in (False, True):
            world = run_digest_workload(tracing=tracing)
            fingerprints[tracing] = (
                world.kernel.events_executed,
                round(world.kernel.now, 12),
            )
        assert fingerprints[False] == fingerprints[True]


if __name__ == "__main__":
    print("WORKLOAD_DIGEST = %r" % workload_digest())
    print("CHAOS_DIGEST = %r" % chaos_digest())
    print("FANOUT_DIGEST = %r" % fanout_digest())
