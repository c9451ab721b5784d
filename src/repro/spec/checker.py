"""Trace checker for the three PSI properties (§3.2).

The distributed Walter implementation records an :class:`ExecutionTrace`
while it runs (when tracing is enabled).  This module re-derives, from the
trace alone, whether the execution satisfied:

* PSI Property 1 (Site Snapshot Read): every read returned the state of
  the object at the reader's site as of the reader's start snapshot;
* PSI Property 2 (No Write-Write Conflicts): committed somewhere-
  concurrent transactions have disjoint write sets -- operationally, any
  two committed transactions with intersecting write sets must be
  causally ordered (one's commit version visible in the other's snapshot);
* PSI Property 3 (Commit Causality Across Sites): if T1 committed at T2's
  site before T2 started, T1 commits before T2 at every site.

This is the core model-based-testing oracle: integration tests run the
real servers under randomized workloads (and fault injection), then call
:func:`check_trace` on what happened.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set

from ..core.cset import CSet
from ..core.history import SiteHistories
from ..core.objects import ObjectId, ObjectKind
from ..core.updates import Update
from ..core.versions import VectorTimestamp, Version


@dataclass
class TracedTx:
    """A committed transaction as recorded by the implementation."""

    tid: str
    site: int
    start_vts: VectorTimestamp
    version: Version
    updates: List[Update]
    write_set: frozenset


@dataclass
class TracedRead:
    """One read observation: what some transaction saw."""

    tid: str
    site: int
    start_vts: VectorTimestamp
    oid: ObjectId
    value: Any  # data for regular objects, Dict[elem, count] for csets


@dataclass
class ExecutionTrace:
    """Everything the checker needs about one run."""

    n_sites: int
    transactions: Dict[str, TracedTx] = field(default_factory=dict)
    #: Per site, the order in which transaction versions committed there
    #: (the order CommittedVTS advanced).
    site_commit_order: Dict[int, List[Version]] = field(default_factory=dict)
    reads: List[TracedRead] = field(default_factory=list)

    def record_commit(self, tx: TracedTx) -> None:
        self.transactions[tx.tid] = tx

    def record_site_commit(self, site: int, version: Version) -> None:
        self.site_commit_order.setdefault(site, []).append(version)

    def record_read(self, read: TracedRead) -> None:
        self.reads.append(read)


@dataclass
class Violation:
    property_name: str
    detail: str

    def __str__(self) -> str:
        return "%s: %s" % (self.property_name, self.detail)


def check_trace(
    trace: ExecutionTrace, abandoned: Optional[Set[Version]] = None
) -> List[Violation]:
    """Return all PSI property violations found (empty list = clean).

    ``abandoned`` names transaction versions legitimately sacrificed by
    the aggressive site-removal option (§4.4) or by storage fencing at a
    server takeover (§5.7): the system first exposed them, then a
    reconfiguration declared they never happened.  Reads are then judged
    against *both* worlds -- with and without the abandoned transactions
    -- since a read is valid if it matched the site state at the time it
    executed.  The paper accepts exactly this anomaly: under the
    aggressive option, clients that observed a sacrificed transaction
    before the failure saw data that is subsequently lost.
    """
    violations: List[Violation] = []
    violations.extend(check_site_snapshot_reads(trace, abandoned))
    violations.extend(check_no_write_write_conflicts(trace, abandoned))
    violations.extend(check_commit_causality(trace))
    return violations


# ----------------------------------------------------------------------
# Property 2: no write-write conflicts
# ----------------------------------------------------------------------
def check_no_write_write_conflicts(
    trace: ExecutionTrace, abandoned: Optional[Set[Version]] = None
) -> List[Violation]:
    """Committed transactions with intersecting write sets must be
    causally ordered: one's version is visible to the other's startVTS.
    Two somewhere-concurrent conflicting commits violate PSI Property 2.

    A transaction ``abandoned`` by aggressive site removal (§4.4) is
    exempt: the new configuration declared it never happened and freed
    its write locks, so the reassigned preferred site may legitimately
    admit a conflicting write that never saw it."""
    violations = []
    abandoned = abandoned or frozenset()
    txs = [t for t in trace.transactions.values() if t.version not in abandoned]
    # Only writers of a common object can conflict; pairs still come out
    # once each, in the (i, j) order of a scan over all pairs.
    writers: Dict[ObjectId, List[int]] = {}
    for i, tx in enumerate(txs):
        for oid in tx.write_set:
            writers.setdefault(oid, []).append(i)
    for i, t1 in enumerate(txs):
        for j in sorted({j for oid in t1.write_set for j in writers[oid] if j > i}):
            t2 = txs[j]
            overlap = t1.write_set & t2.write_set
            t1_before_t2 = t2.start_vts.visible(t1.version)
            t2_before_t1 = t1.start_vts.visible(t2.version)
            if not (t1_before_t2 or t2_before_t1):
                violations.append(
                    Violation(
                        "no-write-write-conflicts",
                        "%s and %s are somewhere-concurrent and both wrote %s"
                        % (t1.tid, t2.tid, sorted(str(o) for o in overlap)),
                    )
                )
    return violations


# ----------------------------------------------------------------------
# Property 3: commit causality across sites
# ----------------------------------------------------------------------
def check_commit_causality(trace: ExecutionTrace) -> List[Violation]:
    """If T1 is in T2's snapshot, T1 commits before T2 at every site
    where both committed.

    One backwards walk of each site's commit order (a version committed
    there twice counts at its last position) keeps, per origin site, the
    sorted seqnos committed later; every T1 among them up to
    ``T2.startVTS[origin]`` is in T2's snapshot yet committed after it.
    Cost: O(commits * origin sites * log commits) plus one step per
    violation."""
    by_version: Dict[Version, List[TracedTx]] = {}
    for tx in trace.transactions.values():
        by_version.setdefault(tx.version, []).append(tx)
    violations = []
    for site, order in trace.site_commit_order.items():
        later: Dict[int, List[int]] = {}
        seen: Set[Version] = set()
        for version in reversed(order):
            if version in seen:
                continue
            seen.add(version)
            t2s = by_version.get(version)
            if t2s is None:
                continue
            for t2 in t2s:
                for origin, seqnos in later.items():
                    for seqno in seqnos[: bisect_right(seqnos, t2.start_vts[origin])]:
                        for t1 in by_version[Version(origin, seqno)]:
                            violations.append(
                                Violation(
                                    "commit-causality",
                                    "%s precedes %s causally but committed after it at site %d"
                                    % (t1.tid, t2.tid, site),
                                )
                            )
            insort(later.setdefault(version.site, []), version.seqno)
    return violations


# ----------------------------------------------------------------------
# Property 1: site snapshot reads
# ----------------------------------------------------------------------
def check_site_snapshot_reads(
    trace: ExecutionTrace, abandoned: Optional[Set[Version]] = None
) -> List[Violation]:
    """Replay each site's commit order into a model history and verify
    every recorded read against the model's snapshot value.

    With a non-empty ``abandoned`` set (see :func:`check_trace`), each
    site gets a second model that skips the abandoned transactions, and a
    read passes if it matches either model: the full one (the site state
    before removal redefined history) or the surviving one (after).
    """
    violations = []
    abandoned = abandoned or frozenset()
    # A version can legitimately name two traced transactions: a
    # fenced/abandoned transaction and the no-op that later sealed its
    # seqno hole (see RecoveryMixin.seal_seqno_holes).  Keep every
    # incarnation in recording order: at the origin site the first
    # occurrence in the commit order is the original, a re-occurrence is
    # the seal; other sites only ever commit the latest incarnation (the
    # original was, by construction, never propagated).
    instances: Dict[Version, List[TracedTx]] = {}
    for tx in trace.transactions.values():
        instances.setdefault(tx.version, []).append(tx)
    for version in sorted(instances):
        real = [tx for tx in instances[version] if tx.updates or tx.write_set]
        if len(real) > 1:
            # Only seal no-ops may share a version with a dead
            # transaction; two real transactions on one version is
            # outright seqno reuse.
            violations.append(
                Violation(
                    "site-snapshot-read",
                    "version %s assigned to multiple transactions: %s"
                    % (version, sorted(tx.tid for tx in real)),
                )
            )
    site_models: Dict[int, SiteHistories] = {}
    surviving_models: Dict[int, SiteHistories] = {}
    for site, order in trace.site_commit_order.items():
        model = SiteHistories()
        surviving = SiteHistories() if abandoned else model
        seen: Dict[Version, int] = {}
        for version in order:
            txs_for = instances.get(version)
            if txs_for is None:
                violations.append(
                    Violation(
                        "site-snapshot-read",
                        "site %d committed unknown version %s" % (site, version),
                    )
                )
                continue
            occurrence = seen.get(version, 0)
            seen[version] = occurrence + 1
            if version.site == site:
                tx = txs_for[min(occurrence, len(txs_for) - 1)]
            else:
                tx = txs_for[-1]
            model.apply(tx.updates, version)
            if abandoned and version not in abandoned:
                surviving.apply(tx.updates, version)
        site_models[site] = model
        surviving_models[site] = surviving

    empty = SiteHistories()
    for read in trace.reads:
        # A site that committed nothing has empty state: nil reads only.
        model = site_models.get(read.site, empty)
        surviving = surviving_models.get(read.site, empty)
        actual = _normalize(read.value)
        expected = _model_value(model, read.oid, read.start_vts)
        if expected == actual:
            continue
        if abandoned and _model_value(surviving, read.oid, read.start_vts) == actual:
            continue  # consistent with the post-removal world (§4.4)
        violations.append(
            Violation(
                "site-snapshot-read",
                "%s at site %d read %s=%r but snapshot %r holds %r"
                % (read.tid, read.site, read.oid, actual, read.start_vts, expected),
            )
        )
    return violations


def _model_value(model: SiteHistories, oid: ObjectId, vts: VectorTimestamp):
    if oid.kind is ObjectKind.CSET:
        return model.read_cset(oid, vts).counts()
    return model.read_regular(oid, vts)


def _normalize(value):
    if isinstance(value, CSet):
        return value.counts()
    return value
