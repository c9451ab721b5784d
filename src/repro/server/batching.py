"""Hot-path batch sizes (DESIGN.md §14).

Batching is how the hot path works, not a mode: there is one propagation
wire and it is batched.  This frozen config only sizes two of its layers:

* **WAL group-commit window** (``wal_window``): concurrent commits at a
  shard share one :class:`~repro.storage.disklog.DiskLog` flush.  The
  flusher already absorbs everything that queues *during* a flush; the
  adaptive window additionally holds a flush open for ``wal_window``
  seconds when the log is busy (a previous flush just ended), letting
  near-simultaneous commits ride the same platter revolution.  An idle
  log flushes immediately, so a lone commit never waits.
* **Propagation stream batching** (``max_batch``): runs of consecutive
  commit records per destination ship as one cast with delta-encoded
  vector timestamps and shared-header trimming for non-replica sites
  (see :mod:`repro.net.wire`), and the ack/DS-DURABLE/VISIBLE for a run
  are one cast each.

None of this is visible at the isolation level: ``max_batch=1,
wal_window=0`` and the defaults give the same PSI/chaos verdicts
(``tests/integration/test_batching_equivalence``).  Remote reads are not
batched: ``read``, ``multiread`` and ``read_cset_objects`` all reach an
object this site does not replicate through one ``remote_read`` per
object, to the nearest replica and then to the preferred site.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union


@dataclass(frozen=True)
class BatchingConfig:
    """Sizes for the hot-path batching layer.

    Defaults are deliberately conservative: a sub-millisecond WAL window
    (well under one EC2 flush) and a propagation chunk large enough that
    the ~RTT-period batches of Fig 19 never split.
    """

    #: Adaptive group-commit window (seconds): how long a *busy* WAL
    #: holds a flush open to absorb concurrent commits.  0 disables the
    #: window (the flusher still group-commits whatever queued during the
    #: previous flush, exactly as before).
    wal_window: float = 0.0005
    #: Maximum commit records per encoded propagation cast; longer runs
    #: split into consecutive casts (still one per destination each).
    max_batch: int = 512

    def __post_init__(self):
        if self.wal_window < 0:
            raise ValueError("wal_window must be >= 0")
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")

    @classmethod
    def coerce(
        cls, value: Union[None, bool, dict, "BatchingConfig"]
    ) -> "BatchingConfig":
        """Normalize a ``Deployment(batching=...)`` argument.

        ``None``/``True`` -> defaults; a dict -> ``BatchingConfig(**dict)``;
        a config -> itself.  ``False`` raises: it used to select the
        per-record wire, which was removed.
        """
        if value is None or value is True:
            return cls()
        if value is False:
            raise ValueError(
                "batching=False is gone: the unbatched propagation wire was "
                "removed and batching is the only path; pass "
                "BatchingConfig(max_batch=1, wal_window=0) for the smallest sizes"
            )
        if isinstance(value, cls):
            return value
        if isinstance(value, dict):
            return cls(**value)
        raise TypeError(
            "batching must be None, True, dict, or BatchingConfig; got %r"
            % (value,)
        )
