"""Simulated-clock metrics and boundary counts of one pass.

Everything here is a pure function of what the clients observed and of
two ``Deployment.metrics_snapshot()`` dumps (window start, window end),
so for a given seed it repeats exactly.  Counters and histograms are
summed over sites; a histogram percentile is taken from the
*window-delta* of its buckets with the registry's own interpolation.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List

from repro.obs import DEFAULT_BUCKETS

_BOUNDS = tuple(DEFAULT_BUCKETS) + (float("inf"),)


def percentile(sorted_values: List[float], p: float) -> float:
    """Nearest-rank percentile of an ascending list; 0.0 when empty."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(p / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail_mean(sorted_values: List[float], share: float = 0.01) -> float:
    """Mean of the slowest ``share`` of an ascending list.  Unlike p99 it
    moves smoothly when commit latencies are quantised (multiples of the
    2 ms WAL flush put p99 on the edge between two modes)."""
    if not sorted_values:
        return 0.0
    tail = sorted_values[-max(1, math.ceil(share * len(sorted_values))) :]
    return sum(tail) / len(tail)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# ----------------------------------------------------------------------
# Snapshot arithmetic
# ----------------------------------------------------------------------
def _labels(key: str) -> Dict[str, str]:
    if "{" not in key:
        return {}
    return dict(part.split("=", 1) for part in key[key.index("{") + 1 : -1].split(","))


def counter_total(snapshot, name: str, keep=None) -> float:
    """Sum of one counter (or gauge) family over its label sets."""
    total = 0
    for family in ("counters", "gauges"):
        for key, value in snapshot[family].items():
            if key.split("{", 1)[0] == name and (keep is None or keep(_labels(key))):
                total += value
    return total


class Hist:
    """A histogram family summed over sites: per-bucket counts + sum."""

    def __init__(self):
        self.buckets: Dict[float, int] = {}
        self.count = 0
        self.sum = 0.0
        self.max = 0.0

    def add(self, snapshot, name: str, sign: int = 1) -> "Hist":
        for key, hist in snapshot["histograms"].items():
            if key.split("{", 1)[0] != name:
                continue
            for bound, n in hist["buckets"]:
                self.buckets[bound] = self.buckets.get(bound, 0) + sign * n
            self.count += sign * hist["count"]
            self.sum += sign * hist["sum"]
            if sign > 0 and hist["max"] is not None:
                self.max = max(self.max, hist["max"])
        return self

    @property
    def mean(self) -> float:
        return _ratio(self.sum, self.count)

    def percentile(self, p: float) -> float:
        """Linear interpolation inside the bucket holding the rank, as
        ``repro.obs.metrics.Histogram.percentile`` does (default
        log-scale buckets only)."""
        if self.count <= 0:
            return 0.0
        rank = p / 100.0 * self.count
        cumulative = 0
        for bound in sorted(self.buckets):
            n = self.buckets[bound]
            if n <= 0:
                continue
            if cumulative + n >= rank:
                i = _BOUNDS.index(bound)
                lo = _BOUNDS[i - 1] if i > 0 else 0.0
                hi = bound if bound != float("inf") else max(self.max, lo)
                return min(lo + (rank - cumulative) / n * (hi - lo), self.max or hi)
            cumulative += n
        return self.max

    def tail_mean(self, share: float = 0.01) -> float:
        """Mean of the slowest ``share`` of the samples, taking each
        bucket's samples as evenly spread between its bounds."""
        wanted = remaining = share * self.count
        if wanted <= 0:
            return 0.0
        total = 0.0
        for bound in sorted(self.buckets, reverse=True):
            n = self.buckets[bound]
            if n <= 0:
                continue
            i = _BOUNDS.index(bound)
            lo = _BOUNDS[i - 1] if i > 0 else 0.0
            hi = min(bound, self.max) if self.max else bound
            take = min(n, remaining)
            # the slowest ``take`` of this bucket's n samples
            total += take * (hi - (hi - lo) * take / n / 2.0)
            remaining -= take
            if remaining <= 0:
                break
        return total / wanted


class Delta:
    """Window-delta view over two snapshots."""

    def __init__(self, before, after):
        self.before, self.after = before, after

    def counter(self, name: str, keep=None) -> float:
        return counter_total(self.after, name, keep) - counter_total(self.before, name, keep)

    def hist(self, name: str) -> Hist:
        return Hist().add(self.after, name).add(self.before, name, sign=-1)


# ----------------------------------------------------------------------
# End-to-end simulated metrics
# ----------------------------------------------------------------------
def _wan_bytes(delta: Delta, base_site_of) -> float:
    return delta.counter(
        "net.bytes",
        keep=lambda labels: base_site_of(int(labels["site"])) != base_site_of(int(labels["dst"])),
    )


def _lag_counts(delta: Delta) -> Dict[str, float]:
    """Commit -> disaster-safe durable / globally visible, from the
    window-delta of the servers' lag histograms.  Per-layer, not
    end-to-end: a saturated window shorter than one propagation batch
    period (~RTTmax) sees no such event, and then these read 0."""
    visible, ds = delta.hist("server.visibility_lag"), delta.hist("server.ds_lag")
    return {
        "server.propagation.visible_lag_p50_ms": visible.percentile(50) * 1e3,
        "server.propagation.visible_lag_p99_ms": visible.percentile(99) * 1e3,
        "server.propagation.ds_lag_p99_ms": ds.percentile(99) * 1e3,
    }


def closed_loop_sim(stats, before, after, window_sim_s: float, base_site_of) -> Dict[str, float]:
    delta = Delta(before, after)
    updates = sorted(stats.update_latencies)
    everything = sorted(stats.update_latencies + stats.read_latencies)
    return {
        "sim_ktps": stats.committed / window_sim_s / 1e3,
        "sim_tx_p50_ms": percentile(everything, 50) * 1e3,
        "sim_commit_p50_ms": percentile(updates, 50) * 1e3,
        "sim_wan_bytes_per_tx": _ratio(_wan_bytes(delta, base_site_of), stats.committed),
        "committed_share": _ratio(stats.committed, stats.attempted),
    }


def closed_loop_counts(stats, before, after, events: int) -> Dict[str, float]:
    reads = sorted(stats.read_latencies)
    updates = sorted(stats.update_latencies)
    counts = boundary_counts(before, after, stats.committed, events)
    counts["client.read_p50_ms"] = percentile(reads, 50) * 1e3
    counts["client.read_p99_ms"] = percentile(reads, 99) * 1e3
    counts["client.commit_p99_ms"] = percentile(updates, 99) * 1e3
    counts["client.commit_tail_ms"] = tail_mean(updates) * 1e3
    return counts


# ----------------------------------------------------------------------
# Boundary counts (per-layer, exact)
# ----------------------------------------------------------------------
def boundary_counts(before, after, committed: int, events: int) -> Dict[str, float]:
    """Ratios of window-delta counters taken at the layer boundaries.
    ``committed`` is the client-observed count the per-tx ratios share
    with the end-to-end metrics; server-side ratios use server counters."""
    delta = Delta(before, after)
    commits = delta.counter("server.commits")
    read_only = delta.counter("server.read_only_commits")
    update_commits = commits - read_only
    aborts = delta.counter("server.aborts")
    sent = delta.counter("net.sent", keep=lambda labels: not labels)
    flushes = delta.counter("disklog.flushes")
    hits, misses = delta.counter("cache.hits"), delta.counter("cache.misses")
    batch = delta.hist("server.propagation_batch")
    return {
        "events": events,
        "sim.events_per_tx": _ratio(events, committed),
        "net.msgs_per_tx": _ratio(sent, committed),
        "net.bytes_per_msg": _ratio(delta.counter("net.bytes"), sent),
        "net.dropped": sum(
            delta.counter("net.dropped_%s" % why) for why in ("partition", "crash", "random")
        ),
        "storage.flushes_per_commit": _ratio(flushes, update_commits),
        "storage.records_per_flush": _ratio(delta.counter("disklog.records"), flushes),
        "storage.cache_hit_rate": _ratio(hits, hits + misses),
        "storage.stalls": delta.counter("disklog.stalls"),
        "core.history_entries": counter_total(after, "server.history_entries"),
        "server.execution.read_only_share": _ratio(read_only, commits),
        "server.execution.coalesced_reads": delta.counter("server.coalesced_reads"),
        "server.commit.slow_share": _ratio(delta.counter("server.slow_commits"), update_commits),
        "server.commit.abort_share": _ratio(aborts, update_commits + aborts),
        "server.commit.latency_p50_ms": delta.hist("server.commit_latency").percentile(50) * 1e3,
        "server.propagation.batches_per_tx": _ratio(
            delta.counter("server.batches_sent"), update_commits
        ),
        "server.propagation.records_per_batch": batch.mean,
        "server.propagation.remote_applied_per_tx": _ratio(
            delta.counter("server.remote_applied"), update_commits
        ),
        "server.propagation.replication_lag_p50_ms": delta.hist(
            "server.replication_lag"
        ).percentile(50)
        * 1e3,
        "client.read_p50_ms": 0.0,
        "client.read_p99_ms": 0.0,
        "client.commit_p99_ms": 0.0,
        "client.commit_tail_ms": 0.0,
        "server.recovery.recover_s": 0.0,
        "spec.faults_applied": 0,
        "spec.verdicts_passed": 0,
        **_lag_counts(delta),
    }


# ----------------------------------------------------------------------
# chaos_recovery: many small worlds, summed
# ----------------------------------------------------------------------
_EMPTY = {"counters": {}, "gauges": {}, "histograms": {}}


def _sum_snapshots(snapshots: Iterable[dict]) -> dict:
    """Fold per-run snapshots into one whose counters are sums and whose
    histograms are listed side by side (``Hist.add`` sums them)."""
    total = {"counters": {}, "gauges": {}, "histograms": {}}
    for run, snap in enumerate(snapshots):
        for family in ("counters", "gauges"):
            for key, value in snap[family].items():
                total[family][key] = total[family].get(key, 0) + value
        for key, hist in snap["histograms"].items():
            name, _, labels = key.partition("{")
            labels = labels[:-1] + "," if labels else ""
            total["histograms"]["%s{%srun=%d}" % (name, labels, run)] = hist
    return total


def chaos_summary(results) -> dict:
    """``run_chaos`` owns its clients, so commit latency here is the
    server-side ``server.commit_latency`` histogram (client-observed
    latency is one LAN round trip more), and the all-transaction latency
    equals it."""
    outcomes = {"COMMITTED": 0, "ABORTED": 0, "ERROR": 0}
    for result in results:
        for status, n in result.outcomes.items():
            outcomes[status] = outcomes.get(status, 0) + n
    attempted = sum(outcomes.values())
    committed = outcomes["COMMITTED"]
    # Clients issue transactions during the fault horizon only; repair
    # and settling after it (rarely tens of seconds) would swamp a rate.
    sim_seconds = sum(result.config.horizon for result in results)
    events = sum(result.world.kernel.events_executed for result in results)
    snapshots = [result.world.metrics_snapshot() for result in results]
    after = _sum_snapshots(snapshots)
    delta = Delta(_EMPTY, after)
    commit = delta.hist("server.commit_latency")
    wan = sum(
        _wan_bytes(Delta(_EMPTY, snap), result.world.base_site_of)
        for result, snap in zip(results, snapshots)
    )
    sim = {
        "sim_ktps": _ratio(committed, sim_seconds) / 1e3,
        "sim_tx_p50_ms": commit.percentile(50) * 1e3,
        "sim_commit_p50_ms": commit.percentile(50) * 1e3,
        "sim_wan_bytes_per_tx": _ratio(wan, committed),
        "committed_share": _ratio(committed, attempted),
    }
    counts = boundary_counts(_EMPTY, after, committed, events)
    counts["client.commit_p99_ms"] = commit.percentile(99) * 1e3  # server-side here
    counts["client.commit_tail_ms"] = commit.tail_mean() * 1e3
    # Last fault -> healed and quiescent, mean over runs.
    counts["server.recovery.recover_s"] = _ratio(
        sum(r.end_time - r.config.horizon - r.config.settle for r in results), len(results)
    )
    counts["spec.faults_applied"] = sum(len(r.applied_faults) for r in results)
    counts["spec.verdicts_passed"] = sum(1 for r in results if r.passed)
    return {
        "sim": sim,
        "counts": counts,
        "tx": {
            "attempted": attempted,
            "committed": committed,
            "aborted": outcomes["ABORTED"],
            "errored": outcomes["ERROR"],
            "first_error": None,
            "update_samples": commit.count,
            "read_samples": 0,
            "verdicts": len(results),
            "verdicts_failed": sum(1 for r in results if not r.passed),
        },
    }
