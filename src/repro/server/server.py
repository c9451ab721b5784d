"""The Walter server: one per site (paper §5.1), assembled from the
protocol mixins that mirror the paper's figures:

* :class:`~repro.server.execution.ExecutionMixin` -- Fig 10,
* :class:`~repro.server.fast_commit.FastCommitMixin` -- Fig 11,
* :class:`~repro.server.slow_commit.SlowCommitMixin` -- Fig 12,
* :class:`~repro.server.propagation.PropagationMixin` -- Fig 13,
* :class:`~repro.server.recovery.RecoveryMixin` -- §5.7.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional

from ..core.history import SiteHistories
from ..core.objects import ObjectId
from ..core.transaction import CommitRecord, RecordIndex, TxStatus
from ..core.versions import VectorTimestamp
from ..net import Host, Network
from ..obs import AccessProfiler, CounterView, MetricsRegistry, Observability, log_buckets
from ..obs import trace as span
from ..sim import Event, Kernel, Lock, Resource
from ..spec.checker import ExecutionTrace
from ..storage import Checkpoint, SiteStorage
from .execution import ExecutionMixin
from .fast_commit import FastCommitMixin
from .propagation import STOPPED, WOKEN, PendingIndex, PropagationMixin, PropagationTracker
from .recovery import RecoveryMixin
from .slow_commit import PreparedLock, SlowCommitMixin
from .state import LeaseConfig, LocalConfig, ServerCosts


class ServerStats(CounterView):
    """Counters used by tests and the benchmark harness: registry
    counters ``server.<field>`` labelled with this server's site."""

    PREFIX = "server"
    FIELDS = (
        "started",
        "commits",
        "aborts",
        "read_only_commits",
        "slow_commit_attempts",
        "slow_commits",
        "remote_applied",
        "remote_commits",
        "batches_sent",
        "resumed_propagations",
        "retransmissions",
        "sealed_holes",
        "gc_removed",
        "gc_records_removed",
    )

    __slots__ = ()

    def __init__(self, registry: Optional[MetricsRegistry] = None, site: int = 0):
        super().__init__(registry, site=site)


class WalterServer(
    ExecutionMixin,
    FastCommitMixin,
    SlowCommitMixin,
    PropagationMixin,
    RecoveryMixin,
    Host,
):
    """A site's Walter server.

    Parameters
    ----------
    config:
        The deployment's shared configuration: container placement,
        preferred-site leases and the active-site set.
    storage:
        The site's replicated cluster storage (WAL + checkpoints); owned
        by the deployment so replacement servers can recover from it.
    peers:
        site id -> server address, for every site (including this one).
    f:
        Disaster-safe fault-tolerance parameter (§4.4); default 1.
    ds_mode:
        ``"all_sites"`` (the experiments' definition, §8.1) or
        ``"f_plus_1"`` (the Fig 13 condition).
    """

    #: Commit-path lease deadlines (DESIGN.md §9), shared by every server.
    leases = LeaseConfig()
    #: How long §6 anti-starvation delays fast commits to an object that
    #: aborted a slow commit.
    anti_starvation_delay = 0.010

    def __init__(
        self,
        kernel: Kernel,
        network: Network,
        site_id: int,
        name: str,
        config: LocalConfig,
        storage: SiteStorage,
        peers: Dict[int, str],
        costs: Optional[ServerCosts] = None,
        f: int = 1,
        ds_mode: str = "all_sites",
        trace: Optional[ExecutionTrace] = None,
        anti_starvation: bool = False,
        takeover: bool = False,
        obs: Optional[Observability] = None,
    ):
        super().__init__(kernel, network, site_id, name, takeover=takeover)
        if ds_mode not in ("all_sites", "f_plus_1"):
            raise ValueError("unknown ds_mode %r" % (ds_mode,))
        self.site_id = site_id
        #: Server->server RPC deadline; the topology never changes.
        self._rpc_timeout = 4.0 * network.topology.max_rtt_from(site_id) + 1.0
        self.config = config
        self.storage = storage
        self.peers = dict(peers)
        self.costs = costs or ServerCosts()
        self.f = f
        self.ds_mode = ds_mode
        self.trace = trace
        self.anti_starvation = anti_starvation

        n_sites = len(network.topology)
        # Fig 9 variables.
        self.curr_seqno = 0
        self.committed_vts = VectorTimestamp.zeros(n_sites)
        self.got_vts = VectorTimestamp.zeros(n_sites)
        self.histories = SiteHistories()
        # Protocol machinery.
        self.locked: Dict[ObjectId, str] = {}
        self.commit_lock = Lock(kernel, name="%s.commit" % name)
        self.cpu = Resource(kernel, self.costs.cores, name="%s.cpu" % name)
        self._txs: Dict[str, object] = {}
        #: Commit records committed or applied here, by version: one
        #: seqno-indexed run per origin.
        self._records_by_version = RecordIndex()
        #: Own commits in flight (committed here, not yet globally
        #: visible), by seqno.
        self._trackers: Dict[int, PropagationTracker] = {}
        #: Records committed since the last batch, and the sender that
        #: ships them (see PropagationMixin._send_next).
        self._outbox: List[CommitRecord] = []
        self._sender = STOPPED
        self._sender_gen = 0
        #: Generation of the ``_every`` chains; ``stop()`` ends them.
        self._every_gen = 0
        #: Trackers of the batch in flight still short of DS durability.
        self._ds_awaited = 0
        self._pending_remote = PendingIndex()
        #: Entries examined by _drain_pending; perf regression tests
        #: assert it stays proportional to unblocked work, not queue size.
        self._drain_scan_steps = 0
        #: Trackers awaiting DS durability in committed_at order (see
        #: _resend_unacked).
        self._undurable = deque()
        # Propagation frontiers (see PropagationMixin).  As an origin:
        # per site, the highest own seqno it ACKed and replied VISIBLE
        # for; the own DS-durable prefix and globally visible prefix.
        self._acked_through = [0] * n_sites
        self._visible_through = [0] * n_sites
        self._ds_prefix = 0
        self._visible_prefix = 0
        # As a receiver, per origin: the (seqno, tid) ACK and VISIBLE
        # frontiers reached here, the DS frontier accepted, and the
        # newest announced one not checkable yet (origin -> pair).
        self._ack_frontier = [(0, None)] * n_sites
        self._visible_frontier = [(0, None)] * n_sites
        self._ds_through = [0] * n_sites
        self._ds_heard: Dict[int, tuple] = {}
        self._delayed_until: Dict[ObjectId, float] = {}
        # Commit-path hardening state (DESIGN.md §9).
        #: tid -> lease deadline of the active transaction (refreshed on
        #: every access RPC); expired entries are reaped by the sweeper.
        self._tx_deadlines: Dict[str, float] = {}
        #: tid -> PreparedLock for prepare locks held at this site.
        self._prepared: Dict[str, PreparedLock] = {}
        #: tid -> (outcome, decided_at): the at-most-once 2PC decision
        #: table (coordinator decisions + decisions delivered to us).
        self._decisions: Dict[str, tuple] = {}
        #: idempotency token -> (status, recorded_at) for tx_commit
        #: retries whose original reply was lost.
        self._commit_outcomes: Dict[str, tuple] = {}
        #: failed site -> (epoch, bound) of the last ``recovery_finalize``
        #: of it applied here (see RecoveryMixin.rpc_recovery_deliver).
        self._finalized: Dict[int, tuple] = {}
        #: tid -> event of a commit RPC with a token currently executing:
        #: a duplicate request waits on it until the first lands its outcome.
        self._commit_inflight: Dict[str, Event] = {}
        # Observability: a deployment shares one Observability across its
        # servers; a standalone server gets a private one so the stats
        # view always has a registry behind it.
        self.obs = obs or Observability()
        self._tracer = self.obs.tracer
        #: Per-site access profiler (hot keys, per-container traffic) on
        #: traced deployments, else None; exported via
        #: Deployment.metrics_snapshot()["access_profile"].
        self.profiler = AccessProfiler(site_id) if self._tracer is not None else None
        registry = self.obs.registry
        self._commit_latency = registry.histogram("server.commit_latency", site=site_id)
        # Always-on lag histograms (the tracer, when enabled, additionally
        # retains per-transaction timelines): replication lag is recorded
        # at the *receiving* site, ds/visibility lag at the origin.
        self._replication_lag = registry.histogram("server.replication_lag", site=site_id)
        self._ds_lag = registry.histogram("server.ds_lag", site=site_id)
        self._visibility_lag = registry.histogram("server.visibility_lag", site=site_id)
        #: Propagation batch occupancy (records per PROPAGATE cast per
        #: destination; DESIGN.md §14).
        self._prop_batch_hist = registry.histogram(
            "server.propagation_batch", buckets=log_buckets(1.0, 4096.0), site=site_id
        )
        self.stats = ServerStats(registry, site_id)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start serving: wake the sender and arm the lease sweeper, and
        the checkpoints if the site's storage takes them."""
        super().start()
        if self._sender == STOPPED:
            self._arm_sender(WOKEN, 0.0)
            self._every(self.leases.sweep_interval, self.lease_sweep)
            if self.storage.checkpoint_interval is not None:
                self._every(self.storage.checkpoint_interval, self.take_checkpoint)

    def stop(self) -> None:
        """Void the sender's timer and end every ``_every`` chain (GC,
        the sweeper, the checkpoints)."""
        self._sender = STOPPED
        self._sender_gen += 1
        self._every_gen += 1
        super().stop()

    def enable_checkpointing(self, interval: float = 30.0) -> None:
        """Checkpoint the index every ``interval`` simulated seconds
        (§6).  Call it once per site: the period is the storage's, and a
        replacement server's ``start()`` re-arms it."""
        if interval <= 0:
            raise ValueError("interval must be > 0")
        self.storage.checkpoint_interval = interval
        self._every(interval, self.take_checkpoint)

    def take_checkpoint(self) -> Checkpoint:
        """Hand the storage a checkpoint of :meth:`state_snapshot`."""
        return self.storage.take_checkpoint(self.state_snapshot())

    def _every(self, period: float, work) -> None:
        """Call ``work()`` every ``period`` simulated seconds until this
        server stops: one timer, re-armed after each call.  ``stop()``
        bumps the generation, so a chain armed before it never runs
        beside one a later ``start()`` arms."""
        gen = self._every_gen

        def tick():
            if self._running and gen == self._every_gen:
                work()
                self.kernel.call_after(period, tick)

        self.kernel.call_after(period, tick)

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def _span(self, tid: str, name: str, parent: Optional[int] = None, **extra):
        """Emit one transaction span event at the current simulated time.

        The single ``None`` check is the entire cost when tracing is off.
        Returns the recorded event (or None) so milestones can chain
        parent edges off it.
        """
        if self._tracer is not None:
            return self._tracer.record(
                tid, name, self.site_id, self.kernel.now, parent=parent, **extra
            )
        return None

    def _span_ctx(self, tid: str, name: str):
        """Span context ``(tid, parent_seq)`` for an outgoing RPC, or
        None when tracing is off; the callee records the receive edge."""
        tracer = self._tracer
        if tracer is not None:
            return (tid, tracer.last_seq(tid, name))
        return None

    def _on_rpc_span(self, method: str, span_ctx: tuple) -> None:
        tid, parent = span_ctx
        self._span(tid, span.RPC_RECV, parent=parent, method=method)

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def gc_watermark(self) -> VectorTimestamp:
        """The site-wide GC watermark: the meet of ``CommittedVTS`` with
        every active transaction's ``startVTS``.  No local snapshot the
        site will still serve can be below it, so history entries and
        commit records covered by it are collectible.

        The own-site entry is additionally held below any own commit
        still mid-propagation: until globally visible it could be
        abandoned by aggressive site removal (§4.4), and a version folded
        into a cset base cannot be truncated back out."""
        watermark = self.committed_vts
        for tx in self._txs.values():
            watermark = watermark.meet(tx.start_vts)
        if self._trackers and self._visible_prefix < watermark[self.site_id]:
            watermark = watermark.with_entry(self.site_id, self._visible_prefix)
        return watermark

    def gc_histories(self) -> int:
        """Garbage-collect below the watermark: drop superseded
        regular-object versions, fold locally-replicated cset histories
        into their cached base, prune settled commit records, and refresh
        the watermark gauge.  Returns the history-entry count collected
        (record pruning is tracked separately in ``gc_records_removed``).

        Skipped while the site is inactive (mid-removal/re-integration,
        §5.7): recovery may still truncate an abandoned suffix, and a
        version folded into a cset base can never be truncated out."""
        if not self.config.is_active(self.site_id):
            return 0
        watermark = self.gc_watermark()
        removed = self.histories.gc(
            watermark,
            fold_cset=lambda oid: self.config.replicated_at(oid, self.site_id),
        )
        self.stats.gc_records_removed += self._gc_records(watermark)
        self._refresh_gc_gauges(watermark)
        return removed

    def _gc_records(self, watermark: VectorTimestamp) -> int:
        """Prune commit records no snapshot or propagation duty can still
        need: covered by the watermark, not mid-propagation, and (for
        own-site records) already globally visible, so a restart will
        never have to resume them.  Histories no longer rebuild from
        records at restore (they checkpoint their own state), so this
        bounds ``_records_by_version``; the cost is that this site can no
        longer serve ``recovery_fetch`` below its pruned frontier."""
        drop = [
            record
            for record in self._records_by_version.records()
            if record.seqno <= watermark[record.site]
            and (record.site != self.site_id or record.seqno <= self._visible_prefix)
        ]
        for record in drop:
            del self._records_by_version[record.version]
        return len(drop)

    def _refresh_gc_gauges(self, watermark: Optional[VectorTimestamp] = None) -> None:
        if watermark is None:
            watermark = self.gc_watermark()
        registry = self.obs.registry
        registry.gauge("server.gc_watermark", site=self.site_id).set(
            sum(watermark)
        )
        registry.gauge("server.history_entries", site=self.site_id).set(
            self.histories.total_entries()
        )
        registry.gauge("server.commit_records", site=self.site_id).set(
            len(self._records_by_version)
        )

    def start_gc(self, interval: float = 5.0) -> None:
        """Run history garbage collection periodically (§6: "the
        persistent log is periodically garbage collected")."""

        def collect():
            self.stats.gc_removed += self.gc_histories()

        self._every(interval, collect)

    def lease_sweep(self) -> int:
        """One pass of the commit-path lease sweeper (DESIGN.md §9):

        * reap active transactions whose lease expired (client crashed or
          its abort was lost) so their ``startVTS`` stops pinning the GC
          watermark;
        * start a decision query for every prepare lock past its lease
          (presumed abort: the lock is only released once the coordinator
          answers ABORTED/UNKNOWN -- see ``_resolve_orphan_lock``);
        * drop expired anti-starvation entries that were never
          re-accessed;
        * expire at-most-once state (commit outcomes, 2PC decisions)
          past its retention window.

        Returns the number of transactions reaped.  The sweep itself
        sends no messages -- orphan queries run as child processes -- so
        an idle sweeper does not perturb simulated timings.  Every
        server runs it from ``start()``."""
        now = self.kernel.now
        reaped = 0
        # Every table the sweep copies is guarded by a truthiness check:
        # the sweeper runs a few times per simulated second on every
        # server, and an idle sweep must not copy empty dicts.
        if self._tx_deadlines:
            for tid, deadline in list(self._tx_deadlines.items()):
                if tid not in self._txs:
                    del self._tx_deadlines[tid]
                    continue
                if deadline > now:
                    continue
                tx = self._txs.pop(tid)
                del self._tx_deadlines[tid]
                if tx.status is TxStatus.ACTIVE:
                    tx.mark_aborted()
                if self._tracer is not None:
                    # The reaped transaction will never emit a terminal
                    # span; mark its trace complete so the ring buffer
                    # may evict it.
                    self._tracer.finish(tid)
                reaped += 1
        if reaped:
            self.obs.registry.counter("tx.reaped", site=self.site_id).inc(reaped)
        if self._prepared and self.chaos_bug != "leak_prepare_locks":
            for tid, info in list(self._prepared.items()):
                if info.deadline <= now and not info.querying:
                    self.spawn_child(
                        self._resolve_orphan_lock(tid),
                        name="orphan:%s@%d" % (tid, self.site_id),
                    )
        if self._delayed_until:
            for oid, until in list(self._delayed_until.items()):
                if until <= now:
                    del self._delayed_until[oid]
        # Both at-most-once tables are written once per key, in time
        # order, so what expired is a prefix: stop at the first live entry.
        retention = self.leases.outcome_retention
        for table in (self._commit_outcomes, self._decisions):
            expired = []
            for key, (_outcome, at) in table.items():
                if at + retention > now:
                    break
                expired.append(key)
            for key in expired:
                del table[key]
        return reaped

    def _reply_dropped(self, method: str) -> None:
        self.obs.registry.counter(
            "server.replies_dropped", site=self.site_id, method=method
        ).inc()

    def __repr__(self) -> str:
        return "<WalterServer %s site=%d seqno=%d>" % (
            self.address,
            self.site_id,
            self.curr_seqno,
        )
