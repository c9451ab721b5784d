"""Micro-benchmarks: each layer's public functions in isolation.

One number per layer entry point, so a regression localises without a
profiler (the ``benchmarks/bench_read_scaling.py`` pattern).  Each
metric times only public functions of one layer, takes the **best of
``repeats`` short repeats** (the work is deterministic, so noise is
one-sided), scales host time to reference speed (``calibrate.py``), and
is an operations-per-host-second rate -- except
``micro.net.wire.bytes_per_record``, a simulated wire size that repeats
exactly.

    python3 benchmarks/ledger/run.py --workload micro     # ~8 s, 3 repeats
"""

from __future__ import annotations

import gc
import time
from typing import Callable, Dict, Tuple

import calibrate
from repro.config_service import make_paxos_group
from repro.core import (
    CommitRecord,
    CSetAdd,
    DataUpdate,
    ObjectId,
    ObjectKind,
    SiteHistories,
    VectorTimestamp,
    Version,
)
from repro.net import Host, Network, Topology
from repro.net.wire import decode_propagation_batch, encode_propagation_batch
from repro.obs import Tracer
from repro.sim import Kernel, Resource
from repro.spec.checker import check_trace
from repro.storage import DiskLog, ObjectCache

N_SITES = 4


def _best(setup: Callable[[], Tuple[Callable[[], object], int]], repeats: int) -> float:
    """Best ops/s over ``repeats`` fresh (set-up, timed run) pairs;
    ``setup`` returns ``(run, n_ops)`` and only ``run()`` is timed."""
    best = 0.0
    for _ in range(repeats):
        run, n_ops = setup()
        gc.collect()
        before = calibrate.sample()
        start = time.process_time()
        run()
        elapsed = time.process_time() - start
        elapsed = calibrate.to_reference_speed(elapsed, before, calibrate.sample())
        best = max(best, n_ops / elapsed if elapsed > 0 else 0.0)
    return best


# ----------------------------------------------------------------------
# sim
# ----------------------------------------------------------------------
def _sim_timeouts(n=80_000):
    kernel = Kernel()

    def ticker():
        for _ in range(n // 8):
            yield kernel.timeout(1.0)

    for i in range(8):
        kernel.spawn(ticker(), name="tick-%d" % i)
    return kernel.run, n


def _sim_resource(n=32_000):
    kernel = Kernel()
    cpu = Resource(kernel, capacity=8, name="cpu")

    def user():
        for _ in range(n // 32):
            yield from cpu.use(1e-4)

    for i in range(32):
        kernel.spawn(user(), name="user-%d" % i)
    return kernel.run, n


# ----------------------------------------------------------------------
# net, net.wire
# ----------------------------------------------------------------------
class _Echo(Host):
    def rpc_echo(self, value):
        return value


def _net_rpc(n=6_000):
    kernel = Kernel()
    network = Network(kernel, Topology.ec2(2), jitter_frac=0.0)
    server = _Echo(kernel, network, 1, "echo-server")
    server.start()
    callers = [_Echo(kernel, network, 0, "echo-client-%d" % i) for i in range(8)]

    def loop(host):
        for i in range(n // 8):
            yield from host.call("echo-server", "echo", value=i)

    for host in callers:
        host.start()
        kernel.spawn(loop(host), name="loop:%s" % host.address)
    return (lambda: kernel.run(until=1e6)), n


def _records(n: int):
    oids = [ObjectId("micro", "o%d" % i, ObjectKind.REGULAR) for i in range(64)]
    vts = VectorTimestamp.zeros(N_SITES)
    records = []
    for seqno in range(1, n + 1):
        vts = vts.with_entry(seqno % N_SITES, seqno)
        updates = [DataUpdate(oids[(seqno + k) % 64], b"x" * 100) for k in range(2)]
        records.append(CommitRecord("micro:%d" % seqno, 0, seqno, vts, updates, float(seqno)))
    return records


def _wire_encode(n=50_000):
    batches = [_records(50)] * (n // 50)
    return (lambda: [encode_propagation_batch(batch) for batch in batches]), n


def _wire_decode(n=50_000):
    entries, _size = encode_propagation_batch(_records(50))
    return (lambda: [decode_propagation_batch(entries) for _ in range(n // 50)]), n


def _wire_bytes_per_record() -> float:
    _entries, size = encode_propagation_batch(_records(50))
    return size / 50.0


# ----------------------------------------------------------------------
# storage
# ----------------------------------------------------------------------
def _disklog_appends(n=48_000):
    kernel = Kernel()
    log = DiskLog(kernel, flush_latency=1e-3, name="micro-disk")

    def writer():
        for i in range(n // 16):
            yield log.append({"kind": "micro", "i": i})

    for i in range(16):
        kernel.spawn(writer(), name="writer-%d" % i)
    return (lambda: kernel.run(until=1e6)), n


def _cache_ops(n=60_000):
    cache = ObjectCache(capacity=512)
    oids = [ObjectId("micro", "o%d" % i, ObjectKind.REGULAR) for i in range(1024)]

    def run():
        get, put = cache.get, cache.put
        for i in range(n // 2):
            oid = oids[(i * 7) % 1024]
            hit, _value = get(oid)
            if not hit:
                put(oid, i)
            put(oids[i % 1024], i)

    return run, n


# ----------------------------------------------------------------------
# core
# ----------------------------------------------------------------------
def _vts_ops(n=150_000):
    a = VectorTimestamp([5, 9, 2, 7])
    b = VectorTimestamp([6, 3, 8, 7])
    version = Version(2, 4)

    def run():
        for _ in range(n // 3):
            a.merge(b)
            a.dominates(b)
            b.visible(version)

    return run, n


def _filled_histories(n_entries=2_000):
    histories = SiteHistories()
    regular = ObjectId("micro", "profile", ObjectKind.REGULAR)
    cset = ObjectId("micro", "timeline", ObjectKind.CSET)
    seqnos = [0] * N_SITES
    for i in range(n_entries):
        site = i % N_SITES
        seqnos[site] += 1
        histories.apply(
            [DataUpdate(regular, b"v%d" % i), CSetAdd(cset, i % 128)], Version(site, seqnos[site])
        )
    return histories, regular, cset, VectorTimestamp(seqnos)


def _history_read(n=50_000):
    histories, regular, _cset, vts = _filled_histories()
    return (lambda: [histories.read_regular(regular, vts) for _ in range(n)]), n


def _history_append(n=40_000):
    histories = SiteHistories()
    oids = [ObjectId("micro", "o%d" % i, ObjectKind.REGULAR) for i in range(256)]

    def run():
        for i in range(n):
            histories.apply([DataUpdate(oids[i % 256], b"v")], Version(i % N_SITES, i // N_SITES + 1))

    return run, n


def _cset_value(n=150):
    histories, _regular, cset, vts = _filled_histories()
    return (lambda: [histories.read_cset(cset, vts) for _ in range(n)]), n


# ----------------------------------------------------------------------
# spec, obs, config_service
# ----------------------------------------------------------------------
def _check_trace():
    """A real trace from a small two-site read-modify-write run (built
    through the public deployment API, outside the timed region)."""
    import random

    from repro import Deployment

    world = Deployment(n_sites=2, seed=7, trace=True)
    oids = []
    for site in range(2):
        container = world.create_container("micro-%d" % site, preferred_site=site)
        oids.extend(container.new_id() for _ in range(40))
    world.preload({oid: b"0" for oid in oids})

    def loop(client, rng):
        for _ in range(60):
            tx = client.start_tx()
            oid = rng.choice(oids)
            yield from client.read(tx, oid)
            yield from client.write(tx, oid, b"1")
            yield from client.commit(tx)

    for i in range(6):
        world.kernel.spawn(loop(world.new_client(i % 2), random.Random("micro:%d" % i)))
    world.run(until=120.0)
    trace = world.trace
    n_tx = len(trace.transactions)

    def run():
        if check_trace(trace):
            raise AssertionError("micro trace violates PSI")

    return run, n_tx


def _tracer_record(n=100_000):
    tracer = Tracer(capacity=4096, deep=True)

    def run():
        record, finish = tracer.record, tracer.finish
        for i in range(n // 4):
            tid = "t%d" % i
            record(tid, "execute", 0, 1.0)
            record(tid, "fast_commit", 0, 2.0, parent=1)
            record(tid, "propagate_send", 0, 3.0, batch=4)
            record(tid, "globally_visible", 0, 4.0)
            finish(tid)

    return run, n


def _paxos(n=400):
    kernel = Kernel()
    network = Network(kernel, Topology.ec2(3), jitter_frac=0.0)
    nodes = make_paxos_group(kernel, network, [0, 1, 2])

    def proposer():
        for i in range(n):
            yield from nodes[0].propose({"cmd": i})

    kernel.spawn(proposer(), name="proposer")
    return (lambda: kernel.run(until=1e6)), n


RATES = {
    "micro.sim.timeout_events_per_s": _sim_timeouts,
    "micro.sim.resource_use_per_s": _sim_resource,
    "micro.net.rpc_roundtrips_per_s": _net_rpc,
    "micro.net.wire.encode_records_per_s": _wire_encode,
    "micro.net.wire.decode_records_per_s": _wire_decode,
    "micro.storage.disklog_appends_per_s": _disklog_appends,
    "micro.storage.cache_ops_per_s": _cache_ops,
    "micro.core.vts_ops_per_s": _vts_ops,
    "micro.core.history_read_per_s": _history_read,
    "micro.core.history_append_per_s": _history_append,
    "micro.core.cset_value_per_s": _cset_value,
    "micro.spec.check_trace_tx_per_s": _check_trace,
    "micro.obs.tracer_record_per_s": _tracer_record,
    "micro.config_service.paxos_decisions_per_s": _paxos,
}


def run_all(repeats: int = 3) -> Dict[str, float]:
    """All 15 ``micro.*`` metrics."""
    results = {name: _best(setup, repeats) for name, setup in RATES.items()}
    results["micro.net.wire.bytes_per_record"] = _wire_bytes_per_record()
    return results
