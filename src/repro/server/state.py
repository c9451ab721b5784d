"""Walter server cost and lease tables, and the configuration.

The per-site server variables of paper Fig 9 live on
:class:`~repro.server.WalterServer` itself:

* ``CurrSeqNo_i`` -- last assigned local sequence number,
* ``CommittedVTS_i`` -- per site, how many of its transactions committed here,
* ``History_i[oid]`` -- per-object update sequences (``SiteHistories``),
* ``GotVTS_i`` -- per site, how many of its transactions were *received* here,

plus the slow-commit lock table, the commit critical section, and the
modelled CPU.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Set

from ..core.objects import Container, ObjectId
from ..errors import ConfigurationError, NoSuchContainerError


@dataclass
class ServerCosts:
    """Calibrated CPU costs (seconds) -- see DESIGN.md §2 and
    ``repro.bench.calibration``.  These are the only tuned constants; all
    benchmark numbers are outputs of the simulation given these.
    """

    #: Modelled cores per server (extra-large EC2 instance: 8 vcores).
    cores: int = 8
    #: CPU time to serve one read RPC (includes snapshot lookup).
    read_op: float = 100e-6
    #: CPU time to serve one buffered-update RPC (write/setAdd/setDel).
    write_op: float = 55e-6
    #: Serialized critical section per committing update transaction --
    #: the "highly contended lock" that bounds write throughput (§8.3).
    commit_critical: float = 28e-6
    #: CPU time to apply one remote transaction during propagation
    #: (cheaper than committing: done in batches, §8.3).
    apply_remote: float = 8e-6
    #: CPU time for the commit RPC shell around the critical section.
    commit_op: float = 40e-6


@dataclass(frozen=True)
class LeaseConfig:
    """Expiry deadlines for commit-path state (DESIGN.md §9).

    A transaction or prepare lock whose owner stops talking to us must
    not pin server state forever: an abandoned transaction pins the GC
    watermark, and an orphaned prepare lock blocks every later writer of
    the object.  Leases bound both.  ``tx_lease`` must exceed the
    longest legitimate gap between two accesses of a live transaction
    (one client op timeout, ~4.2 s on the 4/5-site EC2 topologies);
    ``lock_lease`` only triggers the *decision query* -- locks are never
    released on time alone (presumed abort requires proof, §9)."""

    #: Seconds an active transaction may go untouched before it is
    #: reaped (deadline refreshed on every access RPC).
    tx_lease: float = 5.0
    #: Seconds a prepare lock may be held before the participant asks
    #: the coordinator for the transaction's decision.
    lock_lease: float = 5.0
    #: Period of the server's lease sweeper loop.
    sweep_interval: float = 0.5
    #: Seconds a cached commit outcome (at-most-once token) is retained.
    outcome_retention: float = 30.0


class LocalConfig:
    """The configuration: container placement, preferred-site leases and
    the active-site set, shared in-process by every server and client.

    This is the only configuration state machine.  The paper replicates
    it with Paxos (§5.1); here it is one shared, always-fresh view, so
    reconfiguration (site removal and re-integration, §5.7) mutates it
    and revokes leases, and every server learns of it at the same
    simulated instant (DESIGN.md §2, a named deviation).
    """

    def __init__(self, n_sites: int):
        self.n_sites = n_sites
        self._containers: Dict[str, Container] = {}
        #: Containers whose replica set is a strict subset of the sites.
        self._subset_placed: Set[str] = set()
        #: Partial replication (DESIGN.md §13): whether some container
        #: sits at a strict subset of the sites.  Propagation then trims
        #: records to what each destination stores, a read of a
        #: container stored elsewhere goes to its nearest replica, and
        #: preload and restore skip what a site does not store.
        self.partial = False
        self._set_active(range(n_sites))
        #: cid -> site currently holding the preferred-site lease.
        self._lease_holder: Dict[str, int] = {}
        #: cid -> original preferred site, for containers moved by a site
        #: removal (so re-integration can hand them back, §5.7).
        self.displaced: Dict[str, int] = {}
        self._epoch = 0

    def register(self, container: Container) -> Container:
        placement = container.replica_sites | {container.preferred_site}
        unknown = sorted(site for site in placement if not 0 <= site < self.n_sites)
        if unknown:
            raise ConfigurationError(
                "container %r placed at sites %s outside [0, %d)"
                % (container.id, unknown, self.n_sites)
            )
        self._place(container)
        self._lease_holder[container.id] = container.preferred_site
        return container

    def _place(self, container: Container) -> None:
        self._containers[container.id] = container
        if len(container.replica_sites) < self.n_sites:
            self._subset_placed.add(container.id)
        else:
            self._subset_placed.discard(container.id)
        self.partial = bool(self._subset_placed)

    def container(self, cid: str) -> Container:
        container = self._containers.get(cid)
        if container is None:
            raise NoSuchContainerError("unknown container %r" % (cid,))
        return container

    def containers(self) -> List[Container]:
        return list(self._containers.values())

    def preferred_site(self, oid: ObjectId) -> int:
        """site(oid) in the paper's notation."""
        return self.container(oid.container).preferred_site

    def replicated_at(self, oid: ObjectId, site: int) -> bool:
        return self.container(oid.container).replicated_at(site)

    def holds_preferred_lease(self, cid: str, site: int) -> bool:
        return self._lease_holder.get(cid) == site

    def lease_revoked(self, cid: str) -> bool:
        return cid not in self._lease_holder

    def _set_active(self, sites) -> None:
        """Read per ack and per tracker, changed only by reconfiguration:
        the active set is kept frozen, sorted and as a site bitmask
        between changes."""
        self._active: FrozenSet[int] = frozenset(sites)
        self._active_sorted: List[int] = sorted(self._active)
        self._active_mask = sum(1 << site for site in self._active)

    def active_sites(self) -> List[int]:
        return list(self._active_sorted)

    def active_mask(self) -> int:
        """The active set as a bitmask: bit ``s`` set iff site ``s`` is
        active (what propagation trackers' ack masks are checked against)."""
        return self._active_mask

    def is_active(self, site: int) -> bool:
        return site in self._active

    # ------------------------------------------------------------------
    # Reconfiguration (§5.7); driven by the deployment's recovery logic.
    # ------------------------------------------------------------------
    def suspend_lease(self, cid: str) -> None:
        """Revoke one container's preferred-site lease; writes to it are
        postponed until it is reassigned (planned handover)."""
        self._lease_holder.pop(cid, None)

    def suspend_leases_of_site(self, site: int) -> List[str]:
        """Revoke leases held by a failed site; writes to its containers
        are postponed until reassignment."""
        revoked = []
        for cid, holder in list(self._lease_holder.items()):
            if holder == site:
                del self._lease_holder[cid]
                revoked.append(cid)
        return revoked

    def next_epoch(self) -> int:
        """Number a new recovery-finalize round, in decision order."""
        self._epoch += 1
        return self._epoch

    def deactivate_site(self, site: int) -> None:
        self._set_active(self._active - {site})

    def activate_site(self, site: int) -> None:
        self._set_active(self._active | {site})

    def reassign_preferred_site(
        self, cid: str, new_site: int, remember_original: bool = False
    ) -> None:
        old = self._containers[cid]
        if remember_original and cid not in self.displaced:
            self.displaced[cid] = old.preferred_site
        replicas = set(old.replica_sites) | {new_site}
        self._place(Container(cid, new_site, frozenset(replicas)))
        self._lease_holder[cid] = new_site

    def restore_displaced(self, site: int) -> List[str]:
        """Hand containers displaced from ``site`` back to it."""
        restored = []
        for cid, original in list(self.displaced.items()):
            if original == site:
                self.reassign_preferred_site(cid, site)
                del self.displaced[cid]
                restored.append(cid)
        return restored
