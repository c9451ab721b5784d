"""Index checkpoints (paper §6).

"To speed up system startup and recovery, Walter periodically checkpoints
the index to persistent storage; the checkpoint also describes
transactions that are being replicated.  Checkpointing is done in the
background, so it does not block transaction processing.  When the server
starts, it reconstructs the index from the checkpointed state and the
data in the log after the checkpoint."

A :class:`Checkpoint` is the record :meth:`SiteStorage.take_checkpoint
<repro.storage.cluster.SiteStorage.take_checkpoint>` keeps; the server
takes one every ``interval`` seconds once ``enable_checkpointing`` is
called.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any


@dataclass
class Checkpoint:
    """A snapshot of the server index and the log entries it covers:
    the ``log_position`` entries that had landed when it was taken, and
    those still in flight then (it waits for them before it counts)."""

    taken_at: float
    log_position: int
    state: Any
