"""Site topology: the latency/bandwidth model between data centers.

The default topology is the paper's measured EC2 deployment (§8.1): four
sites -- Virginia (VA), California (CA), Ireland (IE), Singapore (SG) --
with the published average round-trip latencies, >600 Mbps of intra-site
bandwidth and a 22 Mbps cross-site bandwidth cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class Site:
    """A data center participating in the deployment."""

    id: int
    name: str

    def __str__(self) -> str:
        return self.name


#: Paper §8.1, average round-trip latencies in milliseconds.
EC2_RTT_MS: Dict[Tuple[str, str], float] = {
    ("VA", "VA"): 0.5,
    ("VA", "CA"): 82.0,
    ("VA", "IE"): 87.0,
    ("VA", "SG"): 261.0,
    ("CA", "CA"): 0.3,
    ("CA", "IE"): 153.0,
    ("CA", "SG"): 190.0,
    ("IE", "IE"): 0.5,
    ("IE", "SG"): 277.0,
    ("SG", "SG"): 0.3,
}

EC2_SITE_NAMES: List[str] = ["VA", "CA", "IE", "SG"]

#: Paper §8.1: intra-site bandwidth over 600 Mbps, cross-site cap 22 Mbps.
EC2_INTRA_SITE_BANDWIDTH_BPS = 600e6
EC2_CROSS_SITE_BANDWIDTH_BPS = 22e6


class Topology:
    """Sites plus a symmetric RTT matrix and pairwise bandwidth limits.

    RTTs are stored in milliseconds (matching the paper's tables) but all
    query methods return **seconds**, the kernel's time unit.
    """

    def __init__(
        self,
        site_names: Sequence[str],
        rtt_ms: Dict[Tuple[str, str], float],
        intra_bandwidth_bps: float = EC2_INTRA_SITE_BANDWIDTH_BPS,
        cross_bandwidth_bps: float = EC2_CROSS_SITE_BANDWIDTH_BPS,
    ):
        self.sites: List[Site] = [Site(i, name) for i, name in enumerate(site_names)]
        self._by_name: Dict[str, Site] = {s.name: s for s in self.sites}
        if len(self._by_name) != len(self.sites):
            raise ValueError("duplicate site names: %r" % (site_names,))
        self._rtt_ms: Dict[Tuple[str, str], float] = {}
        for (a, b), ms in rtt_ms.items():
            self._rtt_ms[(a, b)] = ms
            self._rtt_ms[(b, a)] = ms
        for a in site_names:
            for b in site_names:
                if (a, b) not in self._rtt_ms:
                    raise ValueError("missing RTT for (%s, %s)" % (a, b))
        self.intra_bandwidth_bps = intra_bandwidth_bps
        self.cross_bandwidth_bps = cross_bandwidth_bps
        # The topology is immutable after construction, so RTT lookups and
        # the per-origin RTTmax (queried on every propagation-loop
        # iteration via the batch period) can be resolved once.
        self._rtt_s: Dict[Tuple[int, int], float] = {}
        for sa in self.sites:
            for sb in self.sites:
                self._rtt_s[(sa.id, sb.id)] = self._rtt_ms[(sa.name, sb.name)] / 1000.0
        self._max_rtt_s: Dict[int, float] = {}
        #: Optional grouping of distinct sites that share a LAN (set by
        #: :meth:`sharded`): pairs in the same group get intra-site
        #: bandwidth.  ``None`` keeps the classic same-id-only rule.
        self._intra_group_of: Optional[Dict[int, int]] = None

    @classmethod
    def ec2(cls, n_sites: int = 4) -> "Topology":
        """The paper's EC2 deployment truncated to its first ``n_sites``.

        Matches the experiment table in §8.1: 1-site = VA, 2-sites = VA+CA,
        3-sites adds IE, 4-sites adds SG.
        """
        if not 1 <= n_sites <= 4:
            raise ValueError("EC2 topology supports 1-4 sites, got %d" % n_sites)
        names = EC2_SITE_NAMES[:n_sites]
        rtt = {
            pair: ms
            for pair, ms in EC2_RTT_MS.items()
            if pair[0] in names and pair[1] in names
        }
        return cls(names, rtt)

    @classmethod
    def datacenters(
        cls,
        sites_per_dc: Sequence[int],
        wan_rtt_ms: float = 85.0,
        lan_rtt_ms: float = 0.3,
        local_rtt_ms: float = 0.2,
    ) -> "Topology":
        """Data centers containing multiple "local sites" (§5.8).

        "A simple way to scale the system is to divide a data center into
        several local sites, each with its own server, and then partition
        the objects across the local sites in the data center."  Sites in
        the same data center see LAN latency; different data centers see
        WAN latency.  Site names are ``DC<d>S<i>``.
        """
        names: List[str] = []
        dc_of: Dict[str, int] = {}
        for dc, count in enumerate(sites_per_dc):
            for i in range(count):
                name = "DC%dS%d" % (dc, i)
                names.append(name)
                dc_of[name] = dc
        table: Dict[Tuple[str, str], float] = {}
        for i, a in enumerate(names):
            for b in names[i:]:
                if a == b:
                    table[(a, b)] = local_rtt_ms
                elif dc_of[a] == dc_of[b]:
                    table[(a, b)] = lan_rtt_ms
                else:
                    table[(a, b)] = wan_rtt_ms
        topo = cls(names, table)
        topo.dc_of = {topo.site(name).id: dc for name, dc in dc_of.items()}
        return topo

    @classmethod
    def sharded(
        cls,
        base: "Topology",
        shards: int,
        lan_rtt_ms: float = 0.3,
    ) -> "Topology":
        """Expand ``base`` so every data center runs ``shards`` co-located
        shard servers (one keyspace shard each, DESIGN.md §13).

        Logical site ``b * shards + k`` is shard ``k`` of base site ``b``
        and is named ``<base>/s<k>``.  Shard servers of the same base site
        see LAN latency (``lan_rtt_ms``) and intra-site bandwidth; shard
        servers of different base sites inherit the base pair's WAN RTT
        and the cross-site bandwidth cap.  ``shards=1`` callers should use
        ``base`` directly -- the deployment layer does, so a single-shard
        run is bit-identical to an unsharded one.

        The result carries ``shards``, ``base_of`` (logical site id ->
        base site id) and ``shard_of`` (logical site id -> shard index),
        mirroring the ``dc_of`` annotation of :meth:`datacenters`.
        """
        if shards < 1:
            raise ValueError("shards must be >= 1, got %d" % shards)
        names: List[str] = []
        origin: List[Tuple[str, int]] = []
        for site in base.sites:
            for k in range(shards):
                names.append("%s/s%d" % (site.name, k))
                origin.append((site.name, k))
        table: Dict[Tuple[str, str], float] = {}
        for i, a in enumerate(names):
            base_a, _shard_a = origin[i]
            for j in range(i, len(names)):
                b = names[j]
                base_b, _shard_b = origin[j]
                if a == b:
                    table[(a, b)] = base._rtt_ms[(base_a, base_a)]
                elif base_a == base_b:
                    table[(a, b)] = lan_rtt_ms
                else:
                    table[(a, b)] = base._rtt_ms[(base_a, base_b)]
        topo = cls(
            names,
            table,
            intra_bandwidth_bps=base.intra_bandwidth_bps,
            cross_bandwidth_bps=base.cross_bandwidth_bps,
        )
        topo.base_of = {
            topo.site(name).id: base.site(origin[i][0]).id
            for i, name in enumerate(names)
        }
        topo.shard_of = {
            topo.site(name).id: origin[i][1] for i, name in enumerate(names)
        }
        # Same-base shard servers share the data center's LAN: message
        # transfer between them uses intra-site bandwidth, not the WAN cap.
        topo._intra_group_of = dict(topo.base_of)
        return topo

    @classmethod
    def uniform(cls, n_sites: int, rtt_ms: float, local_rtt_ms: float = 0.5) -> "Topology":
        """A synthetic topology with one RTT between every pair of sites."""
        names = ["S%d" % i for i in range(n_sites)]
        table = {}
        for i, a in enumerate(names):
            for b in names[i:]:
                table[(a, b)] = local_rtt_ms if a == b else rtt_ms
        return cls(names, table)

    def __len__(self) -> int:
        return len(self.sites)

    def site(self, ref) -> Site:
        """Resolve a site from an id, name, or Site instance."""
        if isinstance(ref, Site):
            return ref
        if isinstance(ref, int):
            return self.sites[ref]
        return self._by_name[ref]

    def rtt(self, a, b) -> float:
        """Round-trip time between two sites, in seconds."""
        sa, sb = self.site(a), self.site(b)
        return self._rtt_s[(sa.id, sb.id)]

    def one_way(self, a, b) -> float:
        """One-way propagation delay between two sites, in seconds."""
        return self.rtt(a, b) / 2.0

    def bandwidth_bps(self, a, b) -> float:
        sa, sb = self.site(a), self.site(b)
        if sa.id == sb.id:
            return self.intra_bandwidth_bps
        groups = self._intra_group_of
        if groups is not None and groups.get(sa.id) == groups.get(sb.id):
            return self.intra_bandwidth_bps
        return self.cross_bandwidth_bps

    def max_rtt_from(self, origin) -> float:
        """RTTmax as used by the paper's replication-latency analysis:
        the largest RTT from ``origin`` to any *other* site, in seconds."""
        so = self.site(origin)
        cached = self._max_rtt_s.get(so.id)
        if cached is None:
            others = [s for s in self.sites if s.id != so.id]
            if not others:
                cached = self.rtt(so, so)
            else:
                cached = max(self.rtt(so, s) for s in others)
            self._max_rtt_s[so.id] = cached
        return cached
