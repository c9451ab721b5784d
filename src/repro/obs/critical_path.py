"""Critical-path attribution over traces: where commit time goes.

Tracing (``Deployment(tracing=True)``) records fine-grained
milestones along a transaction's commit path.  In canonical causal
order:

``client.commit_send`` -> ``commit.rpc_begin`` -> ``commit.cpu`` ->
[``slow_commit.prepare`` -> ``commit.votes``] -> ``commit.lock_acquired``
-> ``fast_commit`` | ``slow_commit.commit`` -> ``disklog_flush`` ->
``commit.rpc_end`` -> ``client.commit_reply``

Because each transaction's commit is a single causal chain (the client
blocks on the commit RPC; the RPC handler blocks on CPU admission, the
2PC round, the commit lock, and the WAL flush in that order), the
consecutive differences between milestones *are* the critical-path
segments, and they sum to the client-observed end-to-end latency by
construction -- the latency-budget table reproduces the fig18/fig20
measurements exactly, not approximately.

Segments (each named for the milestone that ends it):

=================  ====================================================
``request_net``    client -> server request hop to the handler's start
``cpu``            CPU admission queueing + the commit op service time
``prepare_setup``  slow commit only: vote-collection setup
``2pc_votes``      slow commit only: the cross-site prepare round trip
``lock_wait``      waiting on the site commit lock
``commit_critical`` the serialized conflict-check/apply critical section
``wal_flush``      group-commit WAL flush (disk latency + batching)
``post_commit``    propagation enqueue + handler epilogue
``reply_net``      server -> client reply hop
=================  ====================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional

from .trace import (
    CLIENT_COMMIT_REPLY,
    CLIENT_COMMIT_SEND,
    COMMIT_CPU,
    COMMIT_LOCK_ACQUIRED,
    COMMIT_RPC_BEGIN,
    COMMIT_RPC_END,
    COMMIT_VOTES,
    DISKLOG_FLUSH,
    FAST_COMMIT,
    SLOW_COMMIT_COMMIT,
    SLOW_COMMIT_PREPARE,
    TxTrace,
)

#: (milestone event name, segment ending at it); the first present
#: milestone anchors the chain and has no segment.
_COMMIT_MILESTONE = "<commit>"  # placeholder resolved per commit kind
SEGMENTS = (
    (CLIENT_COMMIT_SEND, None),
    (COMMIT_RPC_BEGIN, "request_net"),
    (COMMIT_CPU, "cpu"),
    (SLOW_COMMIT_PREPARE, "prepare_setup"),
    (COMMIT_VOTES, "2pc_votes"),
    (COMMIT_LOCK_ACQUIRED, "lock_wait"),
    (_COMMIT_MILESTONE, "commit_critical"),
    (DISKLOG_FLUSH, "wal_flush"),
    (COMMIT_RPC_END, "post_commit"),
    (CLIENT_COMMIT_REPLY, "reply_net"),
)

#: Segment display order for tables and artifacts.
SEGMENT_ORDER = tuple(label for _name, label in SEGMENTS if label is not None)


@dataclass
class TxBudget:
    """One transaction's critical-path latency budget."""

    tid: str
    kind: str  # "fast" | "slow"
    t_start: float
    total: float
    segments: Dict[str, float] = field(default_factory=dict)
    #: True when the budget spans the full client-observed round trip
    #: (both client milestones present), not just the server-side window.
    client_measured: bool = False


def compute_budget(trace: TxTrace) -> Optional[TxBudget]:
    """Attribute one committed transaction's latency to path segments.

    Returns None for traces without a commit event or with fewer than
    two milestones (nothing to attribute).  Segment values are the
    differences between consecutive *present* milestones, so absent ones
    (e.g. the 2PC pair on a fast commit) simply merge into the next
    segment and the sum always telescopes to ``total``.
    """
    commit = trace.commit_event
    if commit is None:
        return None
    kind = "fast" if commit.name == FAST_COMMIT else "slow"
    commit_name = FAST_COMMIT if kind == "fast" else SLOW_COMMIT_COMMIT
    times: Dict[str, float] = {}
    for event in trace.events:
        if event.name not in times:
            times[event.name] = event.t

    anchor_t: Optional[float] = None
    segments: Dict[str, float] = {}
    for name, label in SEGMENTS:
        if name == _COMMIT_MILESTONE:
            name = commit_name
        t = times.get(name)
        if t is None:
            continue
        if anchor_t is None:
            anchor_t = t
            t_start = t
        elif label is not None:
            segments[label] = t - anchor_t
            anchor_t = t
    if anchor_t is None or not segments:
        return None
    return TxBudget(
        tid=trace.tid,
        kind=kind,
        t_start=t_start,
        total=anchor_t - t_start,
        segments=segments,
        client_measured=(
            CLIENT_COMMIT_SEND in times and CLIENT_COMMIT_REPLY in times
        ),
    )


def _percentile(sorted_values: List[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending list (0.0 when empty)."""
    if not sorted_values:
        return 0.0
    rank = max(0, int(len(sorted_values) * pct / 100.0 + 0.5) - 1)
    return sorted_values[min(rank, len(sorted_values) - 1)]


@dataclass
class BudgetTable:
    """Per-commit-class aggregation of transaction budgets."""

    #: class name ("fast"/"slow") -> {count, total: {...}, segments: {...}}
    classes: Dict[str, Dict[str, Any]] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {"classes": self.classes}


def aggregate_budgets(
    traces: Iterable[TxTrace], client_only: bool = False
) -> BudgetTable:
    """Build the latency-budget table from retained traces.

    ``client_only=True`` keeps only budgets covering the full client
    round trip (the fig18/fig20 measurement window); otherwise budgets
    falling back to the server-side window are aggregated too.
    """
    budgets: List[TxBudget] = []
    for trace in traces:
        budget = compute_budget(trace)
        if budget is None:
            continue
        if client_only and not budget.client_measured:
            continue
        budgets.append(budget)
    table = BudgetTable()
    for kind in ("fast", "slow"):
        kind_budgets = [b for b in budgets if b.kind == kind]
        if not kind_budgets:
            continue
        totals = sorted(b.total for b in kind_budgets)
        n = len(kind_budgets)
        seg_sums: Dict[str, float] = {}
        for budget in kind_budgets:
            for label, value in budget.segments.items():
                seg_sums[label] = seg_sums.get(label, 0.0) + value
        total_sum = sum(totals)
        table.classes[kind] = {
            "count": n,
            "total": {
                "mean": round(total_sum / n, 9),
                "p50": round(_percentile(totals, 50.0), 9),
                "p95": round(_percentile(totals, 95.0), 9),
                "p99": round(_percentile(totals, 99.0), 9),
                "p999": round(_percentile(totals, 99.9), 9),
            },
            "segments": {
                label: {
                    "mean": round(seg_sums[label] / n, 9),
                    "share": round(
                        seg_sums[label] / total_sum if total_sum else 0.0, 6
                    ),
                }
                for label in SEGMENT_ORDER
                if label in seg_sums
            },
        }
    return table


def format_budget_table(table: BudgetTable) -> str:
    """Render the latency budget as an aligned text table (ms)."""
    if not table.classes:
        return "latency budget: no committed transactions traced"
    lines: List[str] = []
    for kind in ("fast", "slow"):
        cls = table.classes.get(kind)
        if cls is None:
            continue
        total = cls["total"]
        lines.append(
            "%s commit (n=%d): total mean %.3fms  p50 %.3fms  p95 %.3fms  "
            "p99 %.3fms  p99.9 %.3fms"
            % (
                kind,
                cls["count"],
                total["mean"] * 1e3,
                total["p50"] * 1e3,
                total["p95"] * 1e3,
                total["p99"] * 1e3,
                total["p999"] * 1e3,
            )
        )
        for label in SEGMENT_ORDER:
            seg = cls["segments"].get(label)
            if seg is None:
                continue
            lines.append(
                "  %-16s %9.3fms  %5.1f%%"
                % (label, seg["mean"] * 1e3, seg["share"] * 100.0)
            )
    return "\n".join(lines)
