"""Replicated cluster storage stand-in (paper §4.4, §5.7).

"When a transaction commits at its site, writes have been logged to a
replicated cluster storage system, so writes are not lost due to power
failures" and "each server at a site stores its transaction log in a
replicated cluster storage system.  When a Walter server fails, the
replacement server resumes propagation for those committed transactions
that have not yet been fully propagated."

The paper's real system used GFS/Petal/FAB-style storage; the
reproduction models the property that matters -- durability independent of
the Walter server process.  A :class:`SiteStorage` lives in the
deployment, not in the server object, so a replacement server constructed
over the same SiteStorage recovers the previous server's durable state.
"""

from __future__ import annotations

import copy
from typing import Any, Optional

from ..obs.metrics import MetricsRegistry
from ..sim import AllOf, Kernel
from .cache import ObjectCache
from .checkpoint import Checkpoint
from .disklog import DiskLog

#: Default in-memory object-cache capacity (paper §6 sizes the cache to
#: hold the working set; 50k matches the benchmarks' populated keyspace).
DEFAULT_CACHE_CAPACITY = 50_000


class SiteStorage:
    """The durable state of one site, surviving Walter-server restarts.

    The WAL and cache count into ``registry`` (``disklog.*`` and
    ``cache.*``, labelled ``site=<site>``); with a ``tracer`` in deep
    mode the WAL emits ``wal.flush`` spans."""

    #: Adaptive group-commit window of the WAL (DESIGN.md §14): a busy
    #: log holds a lone background record's flush open this long so
    #: near-simultaneous records share it.  Well under one EC2 flush.
    WAL_WINDOW = 0.0005

    def __init__(
        self,
        kernel: Kernel,
        site: int,
        flush_latency: float,
        name: str = "",
        registry: Optional[MetricsRegistry] = None,
        tracer=None,
    ):
        self.kernel = kernel
        self.site = site
        self.log = DiskLog(
            kernel,
            flush_latency=flush_latency,
            name=name or ("disk-site%d" % site),
            flush_window=self.WAL_WINDOW,
            registry=registry,
            tracer=tracer,
            site=site,
        )
        #: In-memory object cache with cset-preferring LRU eviction (§6).
        self.cache = ObjectCache(DEFAULT_CACHE_CAPACITY, registry=registry, site=site)
        #: Checkpoint period, set by the server's ``enable_checkpointing``;
        #: a replacement server's ``start()`` keeps the cadence.
        self.checkpoint_interval: Optional[float] = None
        #: The current checkpoint: everything it covers landed, and the
        #: log holds only what it does not cover.
        self.checkpoint: Optional[Checkpoint] = None
        #: The newest checkpoint taken; it installs only if still newest.
        self._newest: Optional[Checkpoint] = None
        #: The preload image, the initial durable state a restart starts
        #: from (DESIGN.md §8): oid -> shared history, one dict for all of
        #: a deployment's storages, and the site-0 seqno it covers.
        self.image: dict = {}
        self.image_seqno = 0

    def inject_flush_stall(self, duration: float) -> float:
        """Fault injection: stall WAL flushes for ``duration`` simulated
        seconds (see :meth:`DiskLog.inject_stall`)."""
        return self.log.inject_stall(duration)

    def fence(self) -> list:
        """Fence this storage before a replacement server takes over
        (§5.7): the old server's not-yet-durable WAL writes are discarded
        -- and with them every checkpoint still waiting for one of them
        to land.  Returns the discarded payloads."""
        return self.log.fence()

    def take_checkpoint(self, state: Any) -> Checkpoint:
        """Checkpoint (a deep copy of) ``state``.  Every state change is
        logged at the instant it is made, so the checkpoint covers the
        log entries appended before it; it becomes the current one once
        all of those have landed -- at once when none is in flight --
        and its install truncates the log below it.  A newer checkpoint
        supersedes one still waiting (whose ``log_position`` would be
        stale after the newer one's install)."""
        checkpoint = Checkpoint(self.kernel.now, len(self.log.entries), copy.deepcopy(state))
        self._newest = checkpoint
        unlanded = self.log.unlanded()
        if unlanded:
            self.kernel.spawn(self._install_when_landed(checkpoint, unlanded),
                              name="checkpoint:%d" % self.site)
        else:
            self._install(checkpoint, ())
        return checkpoint

    def _install_when_landed(self, checkpoint: Checkpoint, unlanded):
        yield AllOf([done for _record, done in unlanded])
        if self._newest is checkpoint:
            self._install(checkpoint, [record for record, _done in unlanded])

    def _install(self, checkpoint: Checkpoint, landed) -> None:
        self.checkpoint = checkpoint
        self.log.truncate(checkpoint.log_position, landed)

    def recover(self):
        """``(checkpoint_state, log)`` for a replacement server: a copy of
        the current checkpoint's state (None without one) and the durable
        log, which holds only what the checkpoint does not cover."""
        checkpoint = self.checkpoint
        state = None if checkpoint is None else copy.deepcopy(checkpoint.state)
        return state, self.log.payloads()
