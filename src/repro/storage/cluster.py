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

from typing import Any, Callable, Dict, Optional

from ..obs.metrics import MetricsRegistry
from ..sim import Kernel
from .cache import ObjectCache
from .checkpoint import Checkpointer
from .disklog import DiskLog

#: Default in-memory object-cache capacity (paper §6 sizes the cache to
#: hold the working set; 50k matches the benchmarks' populated keyspace).
DEFAULT_CACHE_CAPACITY = 50_000


class SiteStorage:
    """The durable state of one site, surviving Walter-server restarts.

    The WAL and cache count into ``registry`` (``disklog.*`` and
    ``cache.*``, labelled ``site=<site>``); with a ``tracer`` in deep
    mode the WAL emits ``wal.flush`` spans."""

    def __init__(
        self,
        kernel: Kernel,
        site: int,
        flush_latency: float,
        name: str = "",
        cache_capacity: int = DEFAULT_CACHE_CAPACITY,
        flush_window: float = 0.0,
        registry: Optional[MetricsRegistry] = None,
        tracer=None,
    ):
        self.kernel = kernel
        self.site = site
        self.log = DiskLog(
            kernel,
            flush_latency=flush_latency,
            name=name or ("disk-site%d" % site),
            flush_window=flush_window,
            registry=registry,
            tracer=tracer,
            site=site,
        )
        #: In-memory object cache with cset-preferring LRU eviction (§6).
        self.cache = ObjectCache(cache_capacity, registry=registry, site=site)
        self._checkpointer: Optional[Checkpointer] = None
        #: Small durable key-value area for server metadata (leases etc.).
        self.metadata: Dict[str, Any] = {}
        #: The preload image, the initial durable state a restart starts
        #: from (DESIGN.md §8): oid -> shared history, one dict for all of
        #: a deployment's storages, and the site-0 seqno it covers.
        self.image: Dict[Any, Any] = {}
        self.image_seqno = 0

    def inject_flush_stall(self, duration: float) -> float:
        """Fault injection: stall WAL flushes for ``duration`` simulated
        seconds (see :meth:`DiskLog.inject_stall`)."""
        return self.log.inject_stall(duration)

    def fence(self) -> list:
        """Fence this storage before a replacement server takes over
        (§5.7): the old server's checkpointer stops (it died with the
        server process) and its not-yet-durable WAL writes are discarded.
        Returns the discarded payloads.  Already-taken checkpoints stay
        available for :meth:`recover`."""
        if self._checkpointer is not None:
            self._checkpointer.stop()
        return self.log.fence()

    def attach_checkpointer(
        self, state_fn: Callable[[], Any], interval: float = 30.0
    ) -> Checkpointer:
        """(Re)create the background checkpointer for the current server."""
        if self._checkpointer is not None:
            self._checkpointer.stop()
        self._checkpointer = Checkpointer(self.kernel, self.log, state_fn, interval)
        self._checkpointer.start()
        return self._checkpointer

    @property
    def checkpointer(self) -> Optional[Checkpointer]:
        return self._checkpointer

    def recover(self):
        """``(checkpoint_state, log_suffix)`` for a replacement server."""
        if self._checkpointer is not None:
            return self._checkpointer.recover()
        return None, self.log.payloads()
