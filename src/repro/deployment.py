"""Deployment assembly: sites, servers, storage, clients, recovery.

A :class:`Deployment` wires a full Walter installation over the simulated
substrate: one :class:`~repro.server.WalterServer` per site on the EC2
topology (§8.1), a shared configuration view, per-site replicated cluster
storage, and client factories.  It also exposes the failure-handling
workflows of §5.7 (server replacement, site removal, re-integration) as
one-call operations used by tests and examples.
"""

from __future__ import annotations

import importlib
import itertools
import types
import zlib
from typing import Dict, Generator, List, Optional, Set, Tuple

from .client import WalterClient
from .core.objects import Container
from .core.versions import Version
from .net import Host, Network, Topology
from .obs import Observability
from .server import LocalConfig, ServerCosts, SiteRecoveryCoordinator, WalterServer
from .sim import Kernel, RandomStreams
from .spec.checker import ExecutionTrace
from .storage import FLUSH_EC2, SiteStorage

_deploy_seq = itertools.count(1)


class Deployment:
    """A complete multi-site Walter installation in one simulation."""

    #: Fault-injection hook (see :class:`~repro.server.recovery.RecoveryMixin`):
    #: propagated to every server the deployment creates, including
    #: replacements.  Only the chaos harness's self-test sets this.
    _chaos_bug: Optional[str] = None

    @property
    def chaos_bug(self) -> Optional[str]:
        return self._chaos_bug

    @chaos_bug.setter
    def chaos_bug(self, value: Optional[str]) -> None:
        # The harness assigns this *after* construction, so propagate to
        # the already-running servers, not just future replacements.
        self._chaos_bug = value
        for server in self.servers:
            server.chaos_bug = value

    def __init__(
        self,
        n_sites: int = 4,
        topology: Optional[Topology] = None,
        seed: int = 0,
        costs: Optional[ServerCosts] = None,
        flush_latency: float = FLUSH_EC2,
        trace: bool = False,
        jitter_frac: float = 0.05,
        anti_starvation: bool = False,
        tracing=False,
        trace_capacity: int = 8192,
        executor: str = "serial",
        workers: int = 0,
        shards: int = 1,
        replication: Optional[int] = None,
        batching=None,
    ):
        # ``executor=`` and ``workers=`` select nothing: there is one
        # (serial) kernel, and the two are kept only for the ledger's
        # parallel pass, which spells them out and calls run_scenario().
        # They go when the ledger stops passing them.
        if executor not in ("serial", "parallel"):
            raise ValueError("executor must be 'serial' or 'parallel', got %r" % (executor,))
        if shards < 1:
            raise ValueError("shards must be >= 1, got %d" % shards)
        # Batching is the wire, not a mode (DESIGN.md §14), and its two
        # sizes are constants: ``batching=`` selects nothing and is kept
        # only for callers that spell out ``batching=True``.
        if batching is not None and batching is not True:
            raise ValueError(
                "batching= takes only None or True: the unbatched propagation "
                "wire was removed, and the batch sizes are constants "
                "(PropagationMixin.MAX_BATCH, SiteStorage.WAL_WINDOW)"
            )
        # The metrics registry is always on; ``tracing=True`` records
        # spans, commit-path milestones and causal parent edges.
        self.obs = Observability(tracing=tracing, trace_capacity=trace_capacity)
        base_topology = topology or Topology.ec2(n_sites)
        self.n_base_sites = len(base_topology)
        if replication is not None and not 1 <= replication <= self.n_base_sites:
            raise ValueError(
                "replication must be in [1, %d], got %r" % (self.n_base_sites, replication)
            )
        self.kernel = Kernel()
        self.streams = RandomStreams(seed)
        #: Intra-site keyspace sharding (DESIGN.md §13): every base site
        #: runs ``shards`` co-located shard servers, each a full logical
        #: site (own seqno stream, WAL, cache, propagation).  ``shards=1``
        #: takes exactly the unsharded path -- same topology object, same
        #: names -- so single-shard runs are bit-identical to the
        #: pre-sharding kernel.
        self.shards = shards
        self.topology = (
            Topology.sharded(base_topology, shards) if shards > 1 else base_topology
        )
        self.n_sites = len(self.topology)
        #: Per-shard replication factor: how many base sites store each
        #: container's shard group (None = every site, the classic
        #: full-replication configuration).
        self.replication = replication
        self.network = Network(
            self.kernel,
            self.topology,
            streams=self.streams,
            jitter_frac=jitter_frac,
            registry=self.obs.registry,
        )
        self.config = LocalConfig(self.n_sites)
        self.trace = ExecutionTrace(n_sites=self.n_sites) if trace else None
        self.costs = costs or ServerCosts()
        self.anti_starvation = anti_starvation
        self._deploy_id = next(_deploy_seq)
        #: Versions legitimately sacrificed by aggressive site removal
        #: (§5.7): committed at the failed site but never propagated.
        #: The chaos durability oracle excludes these from "lost".
        self.abandoned_versions: Set[Version] = set()
        #: Background catch-ups (see :meth:`_start_catch_up`) and the
        #: ``(name, error)`` of each that failed: it records its error
        #: rather than raise into whatever ``run()`` is current.
        self.recoveries: List = []
        self.recovery_errors: List[Tuple[str, str]] = []
        #: Site removals: site -> (reassign_to, the surviving bound the
        #: removal agreed, or None while it is unfinished).
        self._removals: Dict[int, Tuple[int, Optional[int]]] = {}

        self.storages: List[SiteStorage] = [
            SiteStorage(
                self.kernel,
                site,
                flush_latency,
                name="disk-%d-%d" % (self._deploy_id, site),
                registry=self.obs.registry,
                tracer=self.obs.tracer,
            )
            for site in range(self.n_sites)
        ]
        #: The preload image every storage shares (see :meth:`preload`).
        self._image: Dict = {}
        for storage in self.storages:
            storage.image = self._image
        self.addresses: Dict[int, str] = {
            site: "walter-%d-%d" % (self._deploy_id, site) for site in range(self.n_sites)
        }
        self.servers: List[WalterServer] = [
            self._make_server(site) for site in range(self.n_sites)
        ]
        for server in self.servers:
            server.start()
        self._client_seq = itertools.count(1)
        self._container_seq = itertools.count(1)

    def _make_server(self, site: int, takeover: bool = False) -> WalterServer:
        server = WalterServer(
            self.kernel,
            self.network,
            site_id=site,
            name=self.addresses[site],
            config=self.config,
            storage=self.storages[site],
            peers=self.addresses,
            costs=self.costs,
            trace=self.trace,
            anti_starvation=self.anti_starvation,
            takeover=takeover,
            obs=self.obs,
        )
        server.chaos_bug = self.chaos_bug
        return server

    # ------------------------------------------------------------------
    # Topology/objects
    # ------------------------------------------------------------------
    def run_scenario(self, scenario, params=None):
        """Run ``scenario(self, **params)`` on this deployment and return
        an object whose ``scenario_results`` is ``[result]``.  ``scenario``
        is a callable or a ``"module:function"`` name.  This is the
        ledger's parallel-pass surface, kept with ``executor=`` and
        ``workers=`` until the ledger stops calling it."""
        if isinstance(scenario, str):
            module, _, function = scenario.partition(":")
            scenario = getattr(importlib.import_module(module), function)
        result = scenario(self, **(params or {}))
        return types.SimpleNamespace(scenario_results=[result])

    def server(self, site: int) -> WalterServer:
        return self.servers[site]

    # ------------------------------------------------------------------
    # Shard routing (DESIGN.md §13)
    # ------------------------------------------------------------------
    def shard_of(self, cid: str) -> int:
        """Deterministic container-id -> shard routing.  ``crc32`` rather
        than ``hash()``: the builtin string hash is salted per process
        (PYTHONHASHSEED), so routing would differ between processes and
        a replay run would not reproduce the recorded one."""
        return zlib.crc32(cid.encode("utf-8")) % self.shards

    def logical_site(self, base_site: int, shard: int = 0) -> int:
        """The logical site id of ``shard`` at ``base_site``."""
        if not 0 <= shard < self.shards:
            raise ValueError("shard must be in [0, %d), got %d" % (self.shards, shard))
        return base_site * self.shards + shard

    def base_site_of(self, site: int) -> int:
        """The base (data-center) site a logical site belongs to."""
        return site // self.shards

    def route_container(self, cid: str, base_site: int) -> int:
        """The logical site where ``cid``'s preferred server lives when
        its preferred data center is ``base_site`` (hash routing)."""
        return self.logical_site(base_site, self.shard_of(cid))

    def create_container(
        self,
        cid: Optional[str] = None,
        preferred_site: int = 0,
        replica_sites=None,
        preferred_base_site: Optional[int] = None,
    ) -> Container:
        """Register a container; default replication is all sites (the
        WaltSocial configuration: 'replicated at all sites to optimize for
        reads', §7).

        ``preferred_site`` is a logical site (container routing: the
        caller pins the shard).  Alternatively pass ``preferred_base_site``
        to hash-route the container to its shard within that data center.
        When the deployment has a ``replication`` factor, the default
        replica set is the container's shard group: the same shard's
        servers at ``replication`` consecutive base sites starting at the
        preferred one -- so not every site stores every shard."""
        if cid is None:
            cid = "container-%d" % next(self._container_seq)
        if preferred_base_site is not None:
            preferred_site = self.route_container(cid, preferred_base_site)
        if replica_sites is None:
            if self.replication is None:
                replica_sites = range(self.n_sites)
            else:
                shard = preferred_site % self.shards
                anchor = preferred_site // self.shards
                replica_sites = [
                    ((anchor + i) % self.n_base_sites) * self.shards + shard
                    for i in range(self.replication)
                ]
        container = Container(cid, preferred_site, frozenset(replica_sites))
        return self.config.register(container)

    def new_client(self, site: int, name: Optional[str] = None, retry=None) -> WalterClient:
        # No deploy id in the default name: client names feed into tids,
        # and traces must be byte-identical across same-seed runs.
        name = name or "client-%d-%d" % (site, next(self._client_seq))
        client = WalterClient(
            self.kernel,
            self.network,
            site,
            name,
            server_address=self.addresses[site],
            config=self.config,
            retry=retry,
            obs=self.obs,
        )
        client.start()
        return client

    def preload(self, values) -> None:
        """Seed objects as committed, fully-propagated state: an initial
        durable image that every storage shares, not transactions
        (benchmarks populate the store this way instead of simulating
        millions of warm-up writes; DESIGN.md §8).  Each object gets the
        next site-0 version and one read-only history that every replica
        holds until it writes the object.  No commit record is created;
        the trace records one transaction per object.  An object that
        already has a history takes its new version like a write.

        ``values`` maps ObjectId -> bytes (regular) or, for csets, an
        iterable of elements, a ``{elem: count}`` dict, or a CSet.
        """
        from .core.cset import CSet
        from .core.history import ObjectHistory, SharedHistory
        from .core.updates import CSetAdd, CSetDel, DataUpdate

        servers = self.servers
        seq = servers[0].curr_seqno
        start_vts = servers[0].committed_vts
        image = self._image
        for oid, value in values.items():
            seq += 1
            version = Version(0, seq)
            if oid.is_cset:
                counts = value.counts() if isinstance(value, CSet) else value
                if isinstance(counts, dict):
                    updates = []
                    for elem, count in counts.items():
                        op = CSetAdd if count > 0 else CSetDel
                        updates.extend(op(oid, elem) for _ in range(abs(count)))
                else:
                    updates = [CSetAdd(oid, elem) for elem in counts]
            else:
                updates = [DataUpdate(oid, value)]
            held = not updates or oid in image or any(oid in s.histories for s in servers)
            if updates:
                hist = image[oid].copy() if oid in image else ObjectHistory(oid)
                for update in updates:
                    hist.append(update, version)
                hist.__class__ = SharedHistory
                image[oid] = hist
            for server in servers:
                # Partial replication: a site only stores the containers
                # it replicates; preloaded data follows the same placement.
                if self.config.partial and not self.config.replicated_at(oid, server.site_id):
                    continue
                if held:
                    server.histories.apply(updates, version)
                else:
                    server.histories.adopt(hist)
            if self.trace is not None:
                from .spec.checker import TracedTx

                self.trace.record_commit(
                    TracedTx("preload-%d" % seq, 0, start_vts, version, updates, frozenset(
                        u.oid for u in updates if isinstance(u, DataUpdate)
                    ))
                )
                for site in range(self.n_sites):
                    self.trace.record_site_commit(site, version)
        for server in servers:
            server.got_vts = server.got_vts.with_entry(0, seq)
            server.committed_vts = server.committed_vts.with_entry(0, seq)
        for storage in self.storages:
            storage.image_seqno = seq
        servers[0].curr_seqno = seq

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> float:
        """Advance the simulation."""
        return self.kernel.run(until=until)

    def run_process(self, gen: Generator, within: float = 60.0):
        """Spawn a process and run the world until it finishes."""
        return self.kernel.run_process(gen, until=self.kernel.now + within)

    def settle(self, duration: float = 2.0) -> None:
        """Let in-flight propagation finish."""
        self.run(until=self.kernel.now + duration)

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def metrics_snapshot(self):
        """Deterministic dump of every counter/gauge/histogram, plus the
        per-site ``access_profile`` when the deployment traces.  GC
        gauges (watermark, history entries, commit records) are refreshed
        first so they are current even if a server's GC loop is off."""
        for server in self.servers:
            server._refresh_gc_gauges()
        snap = self.obs.snapshot()
        if self.obs.tracer is not None:
            snap["access_profile"] = {
                site: server.profiler.as_dict() for site, server in enumerate(self.servers)
            }
        return snap

    def gc_watermarks(self) -> Dict[int, "VectorTimestamp"]:
        """Per-site GC watermarks (meet of CommittedVTS with every active
        transaction's startVTS) -- what a GC pass at each site would use."""
        return {site: server.gc_watermark() for site, server in enumerate(self.servers)}

    # ------------------------------------------------------------------
    # Failure handling (§5.7)
    # ------------------------------------------------------------------
    def crash_server(self, site: int) -> None:
        """Crash the Walter server process at a site (storage survives)."""
        self.servers[site].crash()

    def replace_server(self, site: int) -> WalterServer:
        """Start a replacement server over the site's cluster storage; it
        recovers its state and resumes propagation (§5.7)."""
        doomed = self._fence_storage(site)
        replacement = self._make_server(site, takeover=True)
        replacement.restore_from_storage()
        for version in doomed:
            # Never reuse a seqno the old server handed out, even though
            # its commit record was fenced before becoming durable.
            replacement.curr_seqno = max(replacement.curr_seqno, version.seqno)
        # Seqnos skipped that way must still reach every receiver (the
        # propagation guard needs a contiguous stream): plug with no-ops.
        replacement.seal_seqno_holes()
        # The predecessor's prepared-lock table was volatile: a 2PC it
        # voted YES for may have committed elsewhere and still be
        # propagating.  Gate commit admission (fast commits and prepare
        # votes) until the replacement has received everything the live
        # sites had committed at takeover -- the lock, had it survived,
        # would have been released by exactly those records' arrival.
        target = replacement.committed_vts
        for peer in self._live_peers(site):
            target = target.merge(self.servers[peer].committed_vts)
        replacement.set_sync_barrier(target)
        replacement.start()
        self.servers[site] = replacement
        # Feed it those records rather than wait for retransmission: a
        # peer retires a propagation tracker once the active set acked,
        # and a predecessor that was mid re-integration was not in that
        # set, so some records would never be resent.
        self._start_catch_up(site)
        return replacement

    def _live_peers(self, site: int) -> List[int]:
        """Active sites other than ``site`` whose server is up."""
        return [peer for peer in self.config.active_sites()
                if peer != site and not self.network.is_crashed(self.addresses[peer])]

    def _start_catch_up(self, site: int) -> None:
        """Spawn a catch-up of ``site``'s (live) server from its live
        peers; the chaos harness waits for :attr:`recoveries`."""
        sources = self._live_peers(site)
        if not sources or self.network.is_crashed(self.addresses[site]):
            return
        coordinator = self._coordinator(at_site=site)
        name = "recovery.catch_up:%d" % site

        def run():
            try:
                yield from coordinator.catch_up(self.addresses[site], sources)
            except Exception as exc:  # noqa: BLE001 - recorded, see recoveries
                self.recovery_errors.append((name, "%s: %s" % (type(exc).__name__, exc)))

        self.recoveries = [proc for proc in self.recoveries if not proc.done]
        self.recoveries.append(self.kernel.spawn(run(), name=name))

    def _fence_storage(self, site: int) -> List[Version]:
        """Fence a site's storage before a takeover (§5.7): the old
        server's in-flight WAL writes are discarded.  The corresponding
        local commits were never durable -- hence never propagated -- so
        they are recorded as abandoned (the durability oracle must not
        count them as lost) and returned so the replacement can avoid
        reusing their seqnos."""
        doomed: List[Version] = []
        for kind, body in self.storages[site].fence():
            if kind == "local_commit":
                doomed.append(body.version)
        self.abandoned_versions.update(doomed)
        return doomed

    def fail_site(self, site: int) -> None:
        """An entire site fails: server down, links severed."""
        self.servers[site].crash()
        for other in range(self.n_sites):
            if other != site:
                self.network.partition(site, other)

    def remove_site(self, failed_site: int, reassign_to: int, within: float = 60.0) -> int:
        """Aggressive recovery (§4.4/§5.7): drop the failed site, keep its
        surviving transactions, reassign its containers.  Returns the
        surviving seqno bound."""
        return self.run_process(
            self.remove_site_gen(failed_site, reassign_to), within=within
        )

    def remove_site_gen(self, failed_site: int, reassign_to: int) -> Generator:
        """Generator form of :meth:`remove_site`, for callers already
        inside the simulation (e.g. the chaos fault injector).  Records
        the transactions the aggressive option sacrificed in
        :attr:`abandoned_versions`."""
        coordinator = self._coordinator(at_site=reassign_to)
        self._removals[failed_site] = (reassign_to, None)
        upto = yield from coordinator.remove_site(self.config, failed_site, reassign_to)
        self._removal_agreed(failed_site, upto)
        return upto

    def _removal_agreed(self, site: int, upto: int) -> None:
        self._removals[site] = (self._removals[site][0], upto)
        for seqno in range(upto + 1, self.servers[site].curr_seqno + 1):
            self.abandoned_versions.add(Version(site, seqno))

    def reintegrate_site(self, site: int, within: float = 60.0) -> WalterServer:
        """Bring a removed site back: heal links, start a recovered server,
        synchronize it, then return its containers (§5.7)."""
        return self.run_process(self.reintegrate_site_gen(site), within=within)

    def reintegrate_site_gen(self, site: int) -> Generator:
        """Generator form of :meth:`reintegrate_site` (see
        :meth:`remove_site_gen`); returns the replacement server."""
        for other in range(self.n_sites):
            if other != site:
                self.network.heal(site, other)
        doomed = self._fence_storage(site)
        replacement = self._make_server(site, takeover=True)
        # No resume: this server's own logged suffix may be abandoned
        # under the new configuration; re-propagating it would resurrect
        # §4.4-sacrificed transactions at the survivors.  The recovery
        # coordinator truncates it and seals the seqno gap instead.
        replacement.restore_from_storage(resume_propagation=False)
        for version in doomed:
            replacement.curr_seqno = max(replacement.curr_seqno, version.seqno)
        replacement.start()
        self.servers[site] = replacement
        survivor = next(s for s in self.config.active_sites() if s != site)
        coordinator = self._coordinator(at_site=survivor)
        reassign_to, upto = self._removals[site]
        if upto is None:
            # A removal that stopped part-way (a survivor unreachable)
            # left no agreed bound; truncating this site to one
            # survivor's reading could discard what another one already
            # committed.  Finish it first.
            upto = yield from coordinator.finish_removal(self.config, site, reassign_to)
            self._removal_agreed(site, upto)
        try:
            yield from coordinator.reintegrate_site(
                self.config, site, replacement.address, upto
            )
        except Exception:
            if self.config.is_active(site):
                # Failed after activation: the survivors' retired trackers
                # will never resend what the final rounds did not deliver.
                self._start_catch_up(site)
            raise
        return replacement

    def migrate_preferred_site(self, cid: str, to_site: int, within: float = 30.0) -> Generator:
        """Planned preferred-site migration of one container by the §5.7
        hand-over (:meth:`SiteRecoveryCoordinator.handover`): revoke the
        lease, so writes to the container abort, and grant once the target
        holds what every live site had received; each coordinator call
        gives up ``within`` seconds from now.  On *any* failure -- the
        deadline, a crashed target, an interrupt of the driving process --
        the old site's lease comes back exactly once, so no two sites can
        ever fast-commit the container."""
        old = self.config.container(cid).preferred_site
        if old == to_site:
            self.config.reassign_preferred_site(cid, to_site)  # re-grant lease
            return
        coordinator = self._coordinator(at_site=to_site)
        coordinator.deadline = self.kernel.now + within
        # The old site is a source even while it is down: a replacement
        # re-establishes what it admitted, and the calls wait for it.
        sources = [old] + [peer for peer in self._live_peers(to_site) if peer != old]
        self.config.suspend_lease(cid)
        granted = False
        try:
            yield from coordinator.handover(self.config, [cid], to_site, sources, "migrate")
            granted = True
        finally:
            if not granted:
                self.config.reassign_preferred_site(cid, old)

    def _coordinator(self, at_site: int = 0) -> SiteRecoveryCoordinator:
        name = "recovery-coord-%d-%d" % (self._deploy_id, next(self._client_seq))
        host = Host(self.kernel, self.network, at_site, name)
        host.start()
        return SiteRecoveryCoordinator(
            self.kernel, host, self.addresses, self.servers, self.obs.registry)
