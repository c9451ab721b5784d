"""Differential testing: the distributed implementation against the
centralized PSI specification.

Random operation sequences run on both the Fig 4/5/7 spec engine and the
real multi-site deployment.  Propagation is synchronized (the spec's
``propagate_all`` after each commit; the deployment settles until its
asynchronous propagation quiesces), after which every read value, cset
state, and commit outcome must agree -- the implementation "emulates the
return values of each operation" (§3.1).

Asynchronous (unsynchronized) schedules are covered separately by the
PSI trace checker tests.
"""

import random

import pytest

from repro.core import ObjectId, ObjectKind
from repro.deployment import Deployment
from repro.spec import ParallelSnapshotIsolation
from repro.storage import FLUSH_MEMORY

N_SITES = 3
N_OBJECTS = 5
N_CSETS = 2
OPS_PER_RUN = 60


def run_differential(seed):
    rng = random.Random(seed)
    world = Deployment(n_sites=N_SITES, flush_latency=FLUSH_MEMORY, jitter_frac=0.0)
    spec = ParallelSnapshotIsolation(n_sites=N_SITES)
    for site in range(N_SITES):
        world.create_container("c%d" % site, preferred_site=site)
    oids = [
        world.config.container("c%d" % (i % N_SITES)).new_id()
        for i in range(N_OBJECTS)
    ]
    csets = [
        world.config.container("c%d" % (i % N_SITES)).new_id(ObjectKind.CSET)
        for i in range(N_CSETS)
    ]
    clients = [world.new_client(site) for site in range(N_SITES)]

    active = []  # list of (site, impl TxHandle, spec tx, has_updates)
    mismatches = []

    def impl(gen):
        return world.run_process(gen, within=120.0)

    def quiescent():
        return not any(s._trackers or s._pending_remote for s in world.servers)

    for step in range(OPS_PER_RUN):
        action = rng.random()
        if action < 0.25 or not active:
            site = rng.randrange(N_SITES)
            handle = clients[site].start_tx()
            # Start eagerly on both sides so snapshots are taken at the
            # same logical moment.
            impl(clients[site].begin(handle))
            active.append([site, handle, spec.start_tx(site), False])
        elif action < 0.45:
            site, handle, spec_tx, _ = entry = rng.choice(active)
            oid = rng.choice(oids)
            impl_value = impl(clients[site].read(handle, oid))
            spec_value = spec.read(spec_tx, oid)
            if impl_value != spec_value:
                mismatches.append((step, "read", oid, impl_value, spec_value))
        elif action < 0.60:
            site, handle, spec_tx, _ = entry = rng.choice(active)
            # Fast-commit-only workload: write objects preferred at the
            # transaction's site, keeping outcomes deterministic.
            local = [o for o in oids if world.config.preferred_site(o) == site]
            if not local:
                continue
            oid = rng.choice(local)
            value = "v%d" % step
            impl(clients[site].write(handle, oid, value))
            spec.write(spec_tx, oid, value)
            entry[3] = True
        elif action < 0.75:
            site, handle, spec_tx, _ = entry = rng.choice(active)
            cset = rng.choice(csets)
            elem = rng.randrange(4)
            if rng.random() < 0.6:
                impl(clients[site].set_add(handle, cset, elem))
                spec.set_add(spec_tx, cset, elem)
            else:
                impl(clients[site].set_del(handle, cset, elem))
                spec.set_del(spec_tx, cset, elem)
            entry[3] = True
        elif action < 0.85:
            site, handle, spec_tx, _ = rng.choice(active)
            cset = rng.choice(csets)
            impl_state = impl(clients[site].set_read(handle, cset)).counts()
            spec_state = spec.set_read(spec_tx, cset).counts()
            if impl_state != spec_state:
                mismatches.append((step, "set_read", cset, impl_state, spec_state))
        else:
            index = rng.randrange(len(active))
            site, handle, spec_tx, _ = active.pop(index)
            impl_status = impl(clients[site].commit(handle))
            spec_status = spec.commit_tx(spec_tx)
            if impl_status != spec_status:
                mismatches.append((step, "commit", handle.tid, impl_status, spec_status))
            # Synchronize propagation on both sides: run until no server
            # has a commit in flight or a record parked (at most 3 s), so
            # open transactions never idle past their lease.
            world.kernel.run(until=world.kernel.now + 3.0, stop_when=quiescent)
            spec.propagate_all()
    return mismatches


@pytest.mark.parametrize("seed", [101, 102, 103, 104])
def test_implementation_matches_psi_spec(seed):
    mismatches = run_differential(seed)
    assert mismatches == [], mismatches
