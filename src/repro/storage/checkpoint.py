"""Background index checkpointing (paper §6).

"To speed up system startup and recovery, Walter periodically checkpoints
the index to persistent storage; the checkpoint also describes
transactions that are being replicated.  Checkpointing is done in the
background, so it does not block transaction processing.  When the server
starts, it reconstructs the index from the checkpointed state and the
data in the log after the checkpoint."

The checkpointer snapshots an application-provided state function every
``interval`` simulated seconds, together with the current log length, so
recovery replays only the log suffix.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Any, Callable, List, Optional

from ..sim import Kernel
from .disklog import DiskLog


@dataclass
class Checkpoint:
    """A snapshot of the server index plus its log position."""

    taken_at: float
    log_position: int
    state: Any


class Checkpointer:
    """Periodically snapshots ``state_fn`` and tracks the log position."""

    def __init__(
        self,
        kernel: Kernel,
        log: DiskLog,
        state_fn: Callable[[], Any],
        interval: float = 30.0,
        write_latency: float = 0.010,
    ):
        if interval <= 0:
            raise ValueError("interval must be > 0")
        self.kernel = kernel
        self.log = log
        self.state_fn = state_fn
        self.interval = interval
        self.write_latency = write_latency
        self.checkpoints: List[Checkpoint] = []
        self._running = False

    def start(self) -> None:
        if not self._running:
            self._running = True
            self.kernel.call_after(self.interval, self._take)

    def stop(self) -> None:
        self._running = False

    def _take(self) -> None:
        if self._running:
            self.take_checkpoint_sync_start()
            # The write happens in the background; model its latency.
            self.kernel.call_after(self.write_latency, self._write)

    def _write(self) -> None:
        if self._running:
            self._finish_pending()
            self.kernel.call_after(self.interval, self._take)

    def take_checkpoint_sync_start(self) -> None:
        self._pending = Checkpoint(
            taken_at=self.kernel.now,
            log_position=len(self.log.entries),
            state=copy.deepcopy(self.state_fn()),
        )

    def _finish_pending(self) -> None:
        self.checkpoints.append(self._pending)
        self._pending = None

    def latest(self) -> Optional[Checkpoint]:
        return self.checkpoints[-1] if self.checkpoints else None

    def recover(self):
        """Return ``(state, log_suffix)`` for server restart: the last
        checkpointed state plus the durable log records after it."""
        checkpoint = self.latest()
        if checkpoint is None:
            return None, self.log.payloads()
        return (
            copy.deepcopy(checkpoint.state),
            self.log.payloads()[checkpoint.log_position:],
        )
