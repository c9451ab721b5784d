"""Unit tests for critical-path attribution over hand-built traces."""

from repro.obs import (
    CLIENT_COMMIT_REPLY,
    CLIENT_COMMIT_SEND,
    COMMIT_CPU,
    COMMIT_LOCK_ACQUIRED,
    COMMIT_RPC_BEGIN,
    COMMIT_RPC_END,
    COMMIT_VOTES,
    DISKLOG_FLUSH,
    EXECUTE,
    FAST_COMMIT,
    SLOW_COMMIT_COMMIT,
    SLOW_COMMIT_PREPARE,
    Tracer,
    aggregate_budgets,
    compute_budget,
    format_budget_table,
)

_FAST_TIMELINE = (
    (CLIENT_COMMIT_SEND, 0.000),
    (COMMIT_RPC_BEGIN, 0.010),
    (COMMIT_CPU, 0.012),
    (COMMIT_LOCK_ACQUIRED, 0.013),
    (FAST_COMMIT, 0.014),
    (DISKLOG_FLUSH, 0.020),
    (COMMIT_RPC_END, 0.021),
    (CLIENT_COMMIT_REPLY, 0.031),
)


def _record(tracer, tid, timeline, site=0):
    for name, t in timeline:
        tracer.record(tid, name, site, t)


class TestComputeBudget:
    def test_fast_commit_full_chain(self):
        tracer = Tracer()
        _record(tracer, "t1", _FAST_TIMELINE)
        budget = compute_budget(tracer.get("t1"))
        assert budget.kind == "fast"
        assert budget.client_measured
        assert abs(budget.total - 0.031) < 1e-12
        assert abs(budget.segments["request_net"] - 0.010) < 1e-12
        assert abs(budget.segments["cpu"] - 0.002) < 1e-12
        assert abs(budget.segments["lock_wait"] - 0.001) < 1e-12
        assert abs(budget.segments["commit_critical"] - 0.001) < 1e-12
        assert abs(budget.segments["wal_flush"] - 0.006) < 1e-12
        assert abs(budget.segments["reply_net"] - 0.010) < 1e-12
        # No 2PC on the fast path.
        assert "2pc_votes" not in budget.segments
        assert "prepare_setup" not in budget.segments
        assert abs(sum(budget.segments.values()) - budget.total) < 1e-12

    def test_slow_commit_has_vote_segment(self):
        tracer = Tracer()
        _record(tracer, "t1", (
            (CLIENT_COMMIT_SEND, 0.000),
            (COMMIT_RPC_BEGIN, 0.010),
            (COMMIT_CPU, 0.011),
            (SLOW_COMMIT_PREPARE, 0.012),
            (COMMIT_VOTES, 0.095),
            (COMMIT_LOCK_ACQUIRED, 0.096),
            (SLOW_COMMIT_COMMIT, 0.097),
            (DISKLOG_FLUSH, 0.105),
            (COMMIT_RPC_END, 0.106),
            (CLIENT_COMMIT_REPLY, 0.116),
        ))
        budget = compute_budget(tracer.get("t1"))
        assert budget.kind == "slow"
        assert abs(budget.segments["2pc_votes"] - 0.083) < 1e-12
        assert abs(sum(budget.segments.values()) - budget.total) < 1e-12

    def test_missing_milestones_merge_into_next_segment(self):
        # Without the CPU milestone, its time lands in lock_wait: the
        # sum still telescopes to the total.
        tracer = Tracer()
        _record(tracer, "t1", [
            (name, t) for name, t in _FAST_TIMELINE if name != COMMIT_CPU
        ])
        budget = compute_budget(tracer.get("t1"))
        assert "cpu" not in budget.segments
        assert abs(budget.segments["lock_wait"] - 0.003) < 1e-12
        assert abs(sum(budget.segments.values()) - budget.total) < 1e-12

    def test_server_window_without_client_spans(self):
        tracer = Tracer()
        _record(tracer, "t1", [
            (name, t) for name, t in _FAST_TIMELINE
            if name not in (CLIENT_COMMIT_SEND, CLIENT_COMMIT_REPLY)
        ])
        budget = compute_budget(tracer.get("t1"))
        assert not budget.client_measured
        # Anchored at the first present milestone (rpc_begin).
        assert abs(budget.total - 0.011) < 1e-12
        assert "request_net" not in budget.segments

    def test_no_commit_no_budget(self):
        tracer = Tracer()
        tracer.record("t1", EXECUTE, 0, 0.0)
        assert compute_budget(tracer.get("t1")) is None


class TestAggregateBudgets:
    def _tracer_with(self, n_fast):
        tracer = Tracer()
        for i in range(n_fast):
            _record(tracer, "f%d" % i, _FAST_TIMELINE)
        return tracer

    def test_aggregation_and_shares(self):
        tracer = self._tracer_with(10)
        # One server-window trace that client_only must exclude.
        _record(tracer, "partial", [
            (name, t) for name, t in _FAST_TIMELINE
            if name != CLIENT_COMMIT_SEND
        ])
        table = aggregate_budgets(tracer.traces(), client_only=True)
        fast = table.classes["fast"]
        assert fast["count"] == 10
        assert abs(fast["total"]["mean"] - 0.031) < 1e-9
        shares = sum(s["share"] for s in fast["segments"].values())
        assert abs(shares - 1.0) < 1e-4
        both = aggregate_budgets(tracer.traces())
        assert both.classes["fast"]["count"] == 11

    def test_format_smoke(self):
        table = aggregate_budgets(self._tracer_with(3).traces())
        text = format_budget_table(table)
        assert "fast commit (n=3)" in text
        assert "wal_flush" in text
        empty = aggregate_budgets([])
        assert "no committed transactions" in format_budget_table(empty)
