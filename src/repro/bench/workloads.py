"""Microbenchmark workloads (paper §8.1-§8.5).

"Our microbenchmark workload consists of transactions that read or write
a few randomly chosen 100-byte objects."  Objects live in per-site
containers so their preferred sites are spread evenly across sites
(§8.3); clients pick keys uniformly at random.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List

from ..client import WalterClient
from ..core.objects import ObjectId, ObjectKind
from ..deployment import Deployment

OBJECT_SIZE = 100  # bytes, §8.1
PAYLOAD = b"x" * OBJECT_SIZE


@dataclass
class KeySpace:
    """The benchmark's populated keys, split by preferred site."""

    oids: List[ObjectId]
    by_site: Dict[int, List[ObjectId]]
    csets_by_site: Dict[int, List[ObjectId]]


def populate(
    world: Deployment,
    n_keys: int = 5000,
    n_csets_per_site: int = 0,
    payload: bytes = PAYLOAD,
) -> KeySpace:
    """Create per-site containers, mint keys round-robin across sites, and
    preload them (the paper populates 50,000 keys; the simulation's cache
    has no capacity cliff so a smaller population is equivalent)."""
    containers = {}
    for site in range(world.n_sites):
        containers[site] = world.create_container(
            "bench-site%d" % site, preferred_site=site
        )
    oids: List[ObjectId] = []
    by_site: Dict[int, List[ObjectId]] = {s: [] for s in range(world.n_sites)}
    for i in range(n_keys):
        site = i % world.n_sites
        oid = containers[site].new_id()
        oids.append(oid)
        by_site[site].append(oid)
    world.preload({oid: payload for oid in oids})
    csets_by_site: Dict[int, List[ObjectId]] = {s: [] for s in range(world.n_sites)}
    for site in range(world.n_sites):
        for _ in range(n_csets_per_site):
            csets_by_site[site].append(containers[site].new_id(ObjectKind.CSET))
    return KeySpace(oids, by_site, csets_by_site)


# ----------------------------------------------------------------------
# Operation factories for the closed-loop harness
# ----------------------------------------------------------------------
def read_tx_factory(keys: KeySpace, size: int = 1):
    """Read-only transactions of ``size`` objects; commit piggybacked on
    the last read (single-object transactions cost one RPC, §8.2)."""

    def factory(client: WalterClient, rng: random.Random):
        def op():
            tx = client.start_tx()
            for i in range(size):
                oid = rng.choice(keys.oids)
                yield from client.read(tx, oid, last=(i == size - 1))
            return "read-%d" % size

        return op

    return factory


def write_tx_factory(keys: KeySpace, size: int = 1, local_preferred: bool = True):
    """Write-only transactions of ``size`` objects.

    ``local_preferred=True`` picks objects whose preferred site is the
    client's site (the fast-commit workload of §8.3); ``False`` picks
    uniformly, producing a fast/slow commit mix.
    """

    def factory(client: WalterClient, rng: random.Random):
        site = client.site.id
        pool_of = keys.by_site

        def op():
            tx = client.start_tx()
            pool = pool_of[site] if local_preferred else keys.oids
            for i in range(size):
                oid = rng.choice(pool)
                yield from client.write(tx, oid, PAYLOAD, last=(i == size - 1))
            if tx.status != "COMMITTED":
                raise RuntimeError("write tx aborted")
            return "write-%d" % size

        return op

    return factory


def mixed_tx_factory(keys: KeySpace, read_size: int, write_size: int, read_frac: float = 0.9):
    """The §8.3 mixed workload: ``read_frac`` read-only transactions, the
    rest write-only."""

    read_factory = read_tx_factory(keys, read_size)
    write_factory = write_tx_factory(keys, write_size)

    def factory(client: WalterClient, rng: random.Random):
        read_op_maker = read_factory(client, rng)
        write_op_maker = write_factory(client, rng)

        def op():
            if rng.random() < read_frac:
                result = yield from read_op_maker()
            else:
                result = yield from write_op_maker()
            return result

        return op

    return factory


def cset_tx_factory(keys: KeySpace):
    """The §8.4 workload: each transaction modifies two 100-byte objects
    at the local preferred site and adds an id to a cset whose preferred
    site is remote; explicit commit (4 RPCs total)."""

    def factory(client: WalterClient, rng: random.Random):
        site = client.site.id

        def op():
            tx = client.start_tx()
            for _ in range(2):
                oid = rng.choice(keys.by_site[site])
                yield from client.write(tx, oid, PAYLOAD)
            remote_sites = [s for s in keys.csets_by_site if s != site and keys.csets_by_site[s]]
            cset = rng.choice(keys.csets_by_site[rng.choice(remote_sites)])
            yield from client.set_add(tx, cset, rng.randrange(1_000_000))
            status = yield from client.commit(tx)
            if status != "COMMITTED":
                raise RuntimeError("cset tx aborted")
            return "cset"

        return op

    return factory


def slow_commit_tx_factory(keys: KeySpace, tx_size: int):
    """The §8.5 workload: write-only transactions of 2-4 objects, each
    object with a *different* preferred site (VA, CA, IE, SG in order),
    issued at the VA site -- forcing slow commit."""

    def factory(client: WalterClient, rng: random.Random):
        def op():
            tx = client.start_tx()
            for site in range(tx_size):
                oid = rng.choice(keys.by_site[site])
                yield from client.write(tx, oid, PAYLOAD)
            status = yield from client.commit(tx)
            if status != "COMMITTED":
                raise RuntimeError("slow tx aborted")
            return "slow-%d" % tx_size

        return op

    return factory
