"""Hot-path batching knobs (DESIGN.md §14).

One frozen config object gates the three batching layers:

* **WAL group-commit window** (``wal_window``): concurrent commits at a
  shard share one :class:`~repro.storage.disklog.DiskLog` flush.  The
  flusher already absorbs everything that queues *during* a flush; the
  adaptive window additionally holds a flush open for ``wal_window``
  seconds when the log is busy (a previous flush just ended), letting
  near-simultaneous commits ride the same platter revolution.  An idle
  log flushes immediately, so a lone commit never waits.
* **Propagation stream batching** (``max_batch``): runs of consecutive
  commit records per destination ship as one batched cast with
  delta-encoded vector timestamps and shared-header trimming for
  non-replica sites (see :mod:`repro.net.wire`), and the per-record
  ack/DS-DURABLE/VISIBLE chatter collapses into per-batch casts.
* **Read coalescing**: duplicate in-flight remote reads for the same
  ``(site, object, snapshot)`` target merge onto one RPC, and multireads
  fan out per-site batched gets.

All three are behavior-transparent at the isolation level: PSI/chaos
verdicts are unchanged, and with batching **off** (the default) every
code path is byte-identical to the unbatched kernel -- which is what the
pinned schedule digests assert.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union


@dataclass(frozen=True)
class BatchingConfig:
    """Tuning knobs for the hot-path batching layer.

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
    ) -> Optional["BatchingConfig"]:
        """Normalize a ``Deployment(batching=...)`` argument.

        ``None``/``False`` -> batching off (None); ``True`` -> defaults;
        a dict -> ``BatchingConfig(**dict)``; a config -> itself.
        """
        if value is None or value is False:
            return None
        if value is True:
            return cls()
        if isinstance(value, cls):
            return value
        if isinstance(value, dict):
            return cls(**value)
        raise TypeError(
            "batching must be None, bool, dict, or BatchingConfig; got %r"
            % (value,)
        )
