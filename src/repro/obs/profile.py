"""Per-site access profiling: hot keys and per-container traffic.

Workload-adaptive preferred-site placement needs to know, per site,
which objects are hot, who writes them, and where the conflicts are.
:class:`AccessProfiler` -- one per server of a traced deployment
(``Deployment(tracing=...)``), none otherwise -- keeps six exact
counters per touched object (reads, writes, conflicts, remote applies,
owner vs non-owner traffic); an observation is one dict probe and two
increments.  The counters are a dict entry and a six-int list per
object per site, which is not free: 3.5 MiB of peak RSS on the
ledger's ``shard4_partial_batched`` and 3.7 on ``slow_commit_2pc``, so
untraced runs do without them.  The hot-key ranking and the
per-container totals are derived from those counters when a snapshot is
taken; ``Deployment.metrics_snapshot()`` exports the snapshot under
``"access_profile"``.

Everything here is plain dict arithmetic driven by protocol hooks; the
profiler never touches the kernel, so it cannot perturb schedules.
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from typing import Any, Dict, List

#: Per-object (and, summed, per-container) counter names, in report
#: order; the counter lists below are indexed in this order.
CONTAINER_FIELDS = (
    "reads",
    "writes",
    "conflicts",
    "remote_applies",
    "owner_ops",
    "nonowner_ops",
)
_READS, _WRITES, _CONFLICTS, _REMOTE_APPLIES, _OWNER, _NONOWNER = range(6)


def _zero_counts() -> List[int]:
    return [0, 0, 0, 0, 0, 0]


class AccessProfiler:
    """Per-site access statistics: exact per-object counters, reported
    as a hot-key ranking plus per-container totals.  One per
    :class:`~repro.server.WalterServer`; fed by the read, commit,
    conflict, and propagation-apply paths."""

    __slots__ = ("site", "_counters")

    def __init__(self, site: int):
        self.site = site
        #: oid -> six counts in ``CONTAINER_FIELDS`` order.  A
        #: defaultdict so an observation is one C-level probe.
        self._counters: Dict[Any, List[int]] = defaultdict(_zero_counts)

    def record_read(self, oid, owner: bool) -> None:
        counts = self._counters[oid]
        counts[_READS] += 1
        counts[_OWNER if owner else _NONOWNER] += 1

    def record_write(self, oid, owner: bool) -> None:
        counts = self._counters[oid]
        counts[_WRITES] += 1
        counts[_OWNER if owner else _NONOWNER] += 1

    def record_conflict(self, oid) -> None:
        """A commit (fast conflict check or 2PC prepare) was refused
        because of this object."""
        self._counters[oid][_CONFLICTS] += 1

    def record_remote_apply(self, oid) -> None:
        """A propagated remote update touched this object here."""
        self._counters[oid][_REMOTE_APPLIES] += 1

    def as_dict(self, top: int = 10) -> Dict[str, Any]:
        """Deterministic snapshot for ``metrics_snapshot()``: the ``top``
        most observed keys (ties by key string), each with its non-zero
        counters, and every container's totals.  An object's ``count``
        is its observations -- every ``record_*`` call bumps exactly one
        of the first four counters."""
        containers: Dict[str, List[int]] = {}
        ranked = []
        observations = 0
        for oid, counts in self._counters.items():
            count = counts[_READS] + counts[_WRITES] + counts[_CONFLICTS] + counts[_REMOTE_APPLIES]
            observations += count
            ranked.append((-count, str(oid), counts))
            totals = containers.setdefault(oid.container, _zero_counts())
            for i, n in enumerate(counts):
                totals[i] += n
        hot_keys = []
        for neg_count, key, counts in heapq.nsmallest(top, ranked):
            entry = {"key": key, "count": -neg_count}
            entry.update((f, n) for f, n in zip(CONTAINER_FIELDS, counts) if n)
            hot_keys.append(entry)
        return {
            "site": self.site,
            "observations": observations,
            "tracked_keys": len(self._counters),
            "hot_keys": hot_keys,
            "containers": {
                cid: dict(zip(CONTAINER_FIELDS, containers[cid])) for cid in sorted(containers)
            },
        }
