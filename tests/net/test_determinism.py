"""Determinism across processes (DESIGN.md §12).

* One jitter stream per directed site link: a link's draws must not
  depend on how traffic on other links interleaves with it.
* Process-portable pickles: no ``PYTHONHASHSEED``-dependent cached
  hashes in the pickled form of a wire class, and a ``__reduce__``
  roundtrip for each of them.
"""

import os
import pickle
import subprocess
import sys


class TestJitterStreamIndependence:
    """One jitter stream per directed site link: a link's delivery times
    must be byte-identical whether or not other links carry traffic."""

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
]
blob = pickle.dumps(objects, pickle.HIGHEST_PROTOCOL)
print(hashlib.sha256(blob).hexdigest())
"""


class TestProcessPortablePickles:
    def test_wire_pickles_independent_of_hashseed(self):
        """Regression for the cached-hash-on-the-wire bug: the pickled
        bytes of every wire class must be identical across processes
        with different ``PYTHONHASHSEED``."""
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
