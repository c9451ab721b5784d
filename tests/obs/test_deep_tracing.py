"""Tracing integration: commit-path milestones, causal parent edges,
exact latency budgets, and the completion-aware ring buffer.

Tracing (``Deployment(tracing=True)``) is recording-only -- it must
never create kernel events -- so a traced run has the identical
simulated schedule of an untraced one (asserted in
``tests/sim/test_schedule_digest.py``).  These tests check what it
records beyond the lifecycle spans: the milestone spans, the cross-hop
parent links, and the telescoping-budget exactness that critical-path
attribution relies on.
"""

from repro.bench import PAYLOAD, populate, run_closed_loop
from repro.deployment import Deployment
from repro.obs import (
    ABORT,
    CLIENT_COMMIT_REPLY,
    CLIENT_COMMIT_SEND,
    COMMIT_LOCK_ACQUIRED,
    COMMIT_RPC_BEGIN,
    COMMIT_RPC_END,
    EXECUTE,
    FAST_COMMIT,
    GLOBALLY_VISIBLE,
    RPC_RECV,
    Tracer,
    WAL_FLUSH,
    aggregate_budgets,
    collect_run,
    compute_budget,
    summarize_artifact,
)

#: Commit-path milestones a traced run records beside the lifecycle spans.
MILESTONES = (
    CLIENT_COMMIT_SEND, CLIENT_COMMIT_REPLY, COMMIT_RPC_BEGIN,
    COMMIT_RPC_END, RPC_RECV, WAL_FLUSH,
)


def _run_workload(tracing):
    world = Deployment(n_sites=3, seed=7, tracing=tracing, trace_capacity=65536)
    keys = populate(world, n_keys=150)

    def factory(client, rng):
        site = client.site.id

        def op():
            tx = client.start_tx()
            oid = rng.choice(keys.by_site[site])
            yield from client.read(tx, oid)
            yield from client.write(tx, oid, PAYLOAD)
            if rng.random() < 0.3:
                # A second preferred site joins the write set: slow commit.
                remote = keys.by_site[(site + 1) % world.n_sites]
                yield from client.write(tx, rng.choice(remote), PAYLOAD)
            status = yield from client.commit(tx)
            return status

        return op

    run_closed_loop(
        world, factory, clients_per_site=3, warmup=0.05, measure=0.4,
        name="traced", seed=5,
    )
    world.settle(1.0)
    return world


class TestDeepSpans:
    def test_milestones_and_both_commit_classes(self):
        world = _run_workload(True)
        names = {e.name for e in world.obs.tracer.events()}
        for name in MILESTONES:
            assert name in names, name
        kinds = {t.commit_kind for t in world.obs.tracer.traces()}
        assert {"fast", "slow"} <= kinds

    def test_parent_edges_resolve_within_trace(self):
        world = _run_workload(True)
        linked = 0
        for trace in world.obs.tracer.traces():
            seqs = {e.seq for e in trace.events}
            for event in trace.events:
                if event.parent is None:
                    continue
                linked += 1
                # A causal edge points at an earlier span of the same tx.
                assert event.parent in seqs, (trace.tid, event.name)
                assert event.parent < event.seq
        assert linked > 50  # rpc.recv + wal.flush + client replies

    def test_reply_parent_is_rpc_end(self):
        world = _run_workload(True)
        checked = 0
        for trace in world.obs.tracer.traces():
            reply = trace.first(CLIENT_COMMIT_REPLY)
            end = trace.first(COMMIT_RPC_END)
            if reply is None or end is None:
                continue
            assert reply.parent == end.seq
            checked += 1
        assert checked > 20

    def test_budgets_telescope_exactly(self):
        world = _run_workload(True)
        budgets = 0
        for trace in world.obs.tracer.traces():
            budget = compute_budget(trace)
            if budget is None or not budget.client_measured:
                continue
            budgets += 1
            # Segments are consecutive milestone differences, so their
            # sum telescopes to the client round trip bit-for-bit.
            assert abs(sum(budget.segments.values()) - budget.total) < 1e-12
            send = trace.first(CLIENT_COMMIT_SEND)
            reply = trace.first(CLIENT_COMMIT_REPLY)
            assert abs(budget.total - (reply.t - send.t)) < 1e-12
        assert budgets > 20
        table = aggregate_budgets(world.obs.tracer.traces(), client_only=True)
        assert "2pc_votes" not in table.classes["fast"]["segments"]
        assert "2pc_votes" in table.classes["slow"]["segments"]

    def test_traced_run_records_milestones_with_parents_and_a_budget(self):
        """``tracing=True`` is the one level: it records the lock, WAL
        and RPC-receive milestones with their causal parents, and the
        run artifact carries the latency budget they feed."""
        world = _run_workload(True)
        for name in (COMMIT_LOCK_ACQUIRED, WAL_FLUSH, RPC_RECV):
            events = [e for e in world.obs.tracer.events() if e.name == name]
            assert events, name
            if name != COMMIT_LOCK_ACQUIRED:
                assert all(e.parent is not None for e in events), name
        budgets = collect_run(world, "run")["budgets"]
        assert budgets["fast"]["count"] > 0

    def test_profiler_in_metrics_snapshot(self):
        world = _run_workload(True)
        snap = world.metrics_snapshot()
        profile = snap["access_profile"]
        assert set(profile) == set(range(world.n_sites))
        for site, prof in profile.items():
            assert prof["site"] == site
            assert prof["observations"] > 0
            assert prof["hot_keys"]
            for stats in prof["containers"].values():
                # Owner/non-owner attribution covers every read+write.
                assert (
                    stats["owner_ops"] + stats["nonowner_ops"]
                    == stats["reads"] + stats["writes"]
                )
        # The artifact's summary line reads the same snapshot.
        top = profile[0]["hot_keys"][0]
        assert "site 0 profile: %d observations, top %s(%d)" % (
            profile[0]["observations"], top["key"], top["count"]
        ) in summarize_artifact(collect_run(world, "run"))


class TestCompletionAwareRingBuffer:
    def _completed(self, tracer, tid, t0):
        tracer.record(tid, EXECUTE, 0, t0)
        tracer.record(tid, FAST_COMMIT, 0, t0 + 0.001)
        tracer.record(tid, GLOBALLY_VISIBLE, 0, t0 + 0.002)

    def test_long_lived_tx_outlives_buffer_window(self):
        tracer = Tracer(capacity=4)
        tracer.record("longtx", EXECUTE, 0, 0.0)
        for i in range(20):
            self._completed(tracer, "t%d" % i, t0=1.0 + i)
        assert tracer.traces_dropped > 0
        # The open trace survived the churn with its events intact...
        trace = tracer.get("longtx")
        assert trace is not None and not trace.completed
        tracer.record("longtx", FAST_COMMIT, 0, 30.0)
        assert [e.name for e in tracer.get("longtx").events] == [
            EXECUTE, FAST_COMMIT,
        ]
        # ...and becomes evictable only once finished.
        tracer.finish("longtx")
        for i in range(20, 30):
            self._completed(tracer, "t%d" % i, t0=40.0 + i)
        assert tracer.get("longtx") is None

    def test_abort_is_terminal(self):
        tracer = Tracer(capacity=2)
        tracer.record("a1", EXECUTE, 0, 0.0)
        tracer.record("a1", ABORT, 0, 0.001)
        for i in range(4):
            self._completed(tracer, "t%d" % i, t0=1.0 + i)
        assert tracer.get("a1") is None
