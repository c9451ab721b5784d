"""Common observed-history format shared by every protocol backend.

A :class:`ProtocolHistory` is the black-box record of one run: one
:class:`~repro.spec.acceptance.TxRecord` per transaction -- where it
ran, when it began and finished, the reads it observed (key and value),
the writes it buffered, and its final status -- filled in place by the
sessions.  What the servers decided is not recorded here: each backend
reads its witness from server state (``ProtocolBackend.witness()``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from ..spec.acceptance import ABORTED, COMMITTED, ERROR, TxRecord


@dataclass
class ProtocolHistory:
    """All transactions of one run, in begin order."""

    transactions: List[TxRecord] = field(default_factory=list)

    def begin(self, tid: str, site: int, now: float) -> TxRecord:
        record = TxRecord(tid=tid, site=site, begin=now)
        self.transactions.append(record)
        return record

    def by_tid(self, tid: str) -> TxRecord:
        for record in self.transactions:
            if record.tid == tid:
                return record
        raise KeyError(tid)

    def committed(self) -> List[TxRecord]:
        return [t for t in self.transactions if t.committed]

    def outcome_tally(self) -> Dict[str, int]:
        tally: Dict[str, int] = {COMMITTED: 0, ABORTED: 0, ERROR: 0}
        for t in self.transactions:
            tally[t.status or ERROR] = tally.get(t.status or ERROR, 0) + 1
        return tally
