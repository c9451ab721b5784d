"""Executable specification of Parallel Snapshot Isolation (Figs 4, 5, 7).

Centralized, like the paper's SI specification (Figs 1-2), but with one
log per site and a per-site commit timestamp vector for each transaction.  The asynchronous
propagation of the paper's ``upon`` statement is exposed as an explicit
:meth:`propagate` step so tests can drive any legal propagation schedule;
:meth:`propagate_all` runs it to fixpoint.

The ``upon`` guard (second line in Fig 4) is what enforces causality: a
transaction x may propagate to site s only after every transaction in x's
snapshot (committed at site(x) before x started) has propagated to s.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Hashable, List, Optional

from ..errors import TransactionStateError
from ..core.cset import CSet
from ..core.objects import ObjectId
from ..core.updates import CSetAdd, CSetDel, DataUpdate, Update, last_data, write_set

COMMITTED = "COMMITTED"
ABORTED = "ABORTED"


@dataclass
class PSILogEntry:
    timestamp: int
    tid: str
    updates: List[Update]


@dataclass
class PSITx:
    """Spec transaction with a per-site commit timestamp vector (Fig 4)."""

    tid: str
    site: int
    start_ts: int
    n_sites: int
    updates: List[Update] = field(default_factory=list)
    status: str = "ACTIVE"
    commit_ts: List[Optional[int]] = field(default_factory=list)
    abort_ts: Optional[int] = None

    def __post_init__(self):
        if not self.commit_ts:
            self.commit_ts = [None] * self.n_sites

    @property
    def write_set(self):
        return write_set(self.updates)

    def committed_everywhere(self) -> bool:
        return self.status == COMMITTED and all(ts is not None for ts in self.commit_ts)


class ParallelSnapshotIsolation:
    """The Fig 4/5/7 specification, executed literally."""

    def __init__(self, n_sites: int, pessimistic: bool = False):
        if n_sites < 1:
            raise ValueError("need at least one site")
        self.n_sites = n_sites
        self._clock = itertools.count(1)
        self.logs: List[List[PSILogEntry]] = [[] for _ in range(n_sites)]
        self.transactions: List[PSITx] = []
        self.pessimistic = pessimistic
        self._tids = itertools.count(1)

    # ------------------------------------------------------------------
    # Operations (Figs 4 and 7)
    # ------------------------------------------------------------------
    def start_tx(self, site: int) -> PSITx:
        self._check_site(site)
        tx = PSITx(
            tid="psi-%d" % next(self._tids),
            site=site,
            start_ts=next(self._clock),
            n_sites=self.n_sites,
        )
        self.transactions.append(tx)
        return tx

    def write(self, tx: PSITx, oid: ObjectId, data: Any) -> None:
        self._require_active(tx)
        tx.updates.append(DataUpdate(oid, data))

    def read(self, tx: PSITx, oid: ObjectId) -> Any:
        """State of oid from x.updates and Log[site(x)] up to x.startTs."""
        self._require_active(tx)
        found, data = last_data(tx.updates, oid)
        if found:
            return data
        value = None
        for entry in self.logs[tx.site]:
            if entry.timestamp > tx.start_ts:
                continue
            for update in entry.updates:
                if isinstance(update, DataUpdate) and update.oid == oid:
                    value = update.data
        return value

    def set_add(self, tx: PSITx, oid: ObjectId, elem: Hashable) -> None:
        self._require_active(tx)
        tx.updates.append(CSetAdd(oid, elem))

    def set_del(self, tx: PSITx, oid: ObjectId, elem: Hashable) -> None:
        self._require_active(tx)
        tx.updates.append(CSetDel(oid, elem))

    def set_read(self, tx: PSITx, oid: ObjectId) -> CSet:
        """Fig 7: fold ADD/DEL from Log[site(x)] up to startTs plus buffer."""
        self._require_active(tx)
        cset = CSet()
        for entry in self.logs[tx.site]:
            if entry.timestamp > tx.start_ts:
                continue
            self._fold_cset(cset, entry.updates, oid)
        self._fold_cset(cset, tx.updates, oid)
        return cset

    def set_read_id(self, tx: PSITx, oid: ObjectId, elem: Hashable) -> int:
        """§3.3 extension: count of a single element."""
        return self.set_read(tx, oid).count(elem)

    def commit_tx(self, tx: PSITx) -> str:
        self._require_active(tx)
        ts = next(self._clock)
        tx.status = self._choose_outcome(tx)
        if tx.status == COMMITTED:
            tx.commit_ts[tx.site] = ts
            self.logs[tx.site].append(PSILogEntry(ts, tx.tid, list(tx.updates)))
        else:
            tx.abort_ts = ts
        return tx.status

    def abort_tx(self, tx: PSITx) -> str:
        self._require_active(tx)
        tx.status = ABORTED
        tx.abort_ts = next(self._clock)
        return tx.status

    # ------------------------------------------------------------------
    # Propagation (the upon statement of Fig 4)
    # ------------------------------------------------------------------
    def can_propagate(self, tx: PSITx, site: int) -> bool:
        """The upon-statement guard for propagating ``tx`` to ``site``."""
        self._check_site(site)
        if tx.status != COMMITTED or tx.commit_ts[site] is not None:
            return False
        # ∀y: y.commitTs[site(x)] < x.startTs ⇒ y.commitTs[s] ≠ ⊥
        for other in self.transactions:
            if other is tx or other.status != COMMITTED:
                continue
            committed_at_home = other.commit_ts[tx.site]
            if committed_at_home is not None and committed_at_home < tx.start_ts:
                if other.commit_ts[site] is None:
                    return False
        return True

    def propagate(self, tx: PSITx, site: int) -> None:
        """Commit ``tx`` at remote ``site`` (one firing of the upon stmt)."""
        if not self.can_propagate(tx, site):
            raise TransactionStateError(
                "cannot propagate %s to site %d yet" % (tx.tid, site)
            )
        ts = next(self._clock)
        tx.commit_ts[site] = ts
        self.logs[site].append(PSILogEntry(ts, tx.tid, list(tx.updates)))

    def propagate_all(self) -> int:
        """Fire the upon statement until no transaction can propagate."""
        fired = 0
        progress = True
        while progress:
            progress = False
            for tx in self.transactions:
                for site in range(self.n_sites):
                    if self.can_propagate(tx, site):
                        self.propagate(tx, site)
                        fired += 1
                        progress = True
        return fired

    # ------------------------------------------------------------------
    # chooseOutcome (Fig 5)
    # ------------------------------------------------------------------
    def _choose_outcome(self, tx: PSITx) -> str:
        for other in self.transactions:
            if other is tx or not self._write_conflict(tx, other):
                continue
            committed_here = other.commit_ts[tx.site]
            committed_after_start = (
                other.status == COMMITTED
                and committed_here is not None
                and committed_here > tx.start_ts
            )
            # "propagating to site(x)": committed but not yet at site(x).
            propagating_here = other.status == COMMITTED and committed_here is None
            if committed_after_start or propagating_here:
                return ABORTED
        for other in self.transactions:
            if other is tx or not self._write_conflict(tx, other):
                continue
            aborted_after_start = (
                other.status == ABORTED and (other.abort_ts or 0) > tx.start_ts
            )
            if aborted_after_start or other.status == "ACTIVE":
                return ABORTED if self.pessimistic else COMMITTED
        return COMMITTED

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _write_conflict(a: PSITx, b: PSITx) -> bool:
        return bool(a.write_set & b.write_set)

    @staticmethod
    def _fold_cset(cset: CSet, updates: List[Update], oid: ObjectId) -> None:
        for update in updates:
            if isinstance(update, CSetAdd) and update.oid == oid:
                cset.add(update.elem)
            elif isinstance(update, CSetDel) and update.oid == oid:
                cset.rem(update.elem)

    @staticmethod
    def _require_active(tx: PSITx) -> None:
        if tx.status != "ACTIVE":
            raise TransactionStateError("spec transaction %s is %s" % (tx.tid, tx.status))

    def _check_site(self, site: int) -> None:
        if not 0 <= site < self.n_sites:
            raise ValueError("site %d out of range [0, %d)" % (site, self.n_sites))

    def site_value(self, site: int, oid: ObjectId) -> Any:
        """Latest committed regular value at a site (observer helper)."""
        value = None
        for entry in self.logs[site]:
            for update in entry.updates:
                if isinstance(update, DataUpdate) and update.oid == oid:
                    value = update.data
        return value

    def site_cset(self, site: int, oid: ObjectId) -> CSet:
        """Current cset state at a site (observer helper)."""
        cset = CSet()
        for entry in self.logs[site]:
            self._fold_cset(cset, entry.updates, oid)
        return cset
