"""The one preferred-site hand-over (``SiteRecoveryCoordinator.handover``).

Migration, site removal and re-integration move a container's preferred
site by one rule: revoke the lease, let the target catch up with the
frontier every live source had received, then grant.
"""

from repro.core.objects import ObjectKind
from repro.deployment import Deployment
from repro.net import Topology
from repro.storage import FLUSH_MEMORY

OLD, THIRD, TARGET = 0, 1, 2


def partial_world():
    """Three sites under partial replication.  ``c`` lives at the old
    site and the third site, not at the target.  The third site is far
    from the old one and close to the target, so what it commits reaches
    the target's wire at once and the old site's history late."""
    topology = Topology(
        ["A", "B", "C"],
        {
            ("A", "A"): 0.5, ("B", "B"): 0.5, ("C", "C"): 0.5,
            ("A", "B"): 400.0, ("A", "C"): 200.0, ("B", "C"): 10.0,
        },
    )
    world = Deployment(
        topology=topology, flush_latency=FLUSH_MEMORY, seed=39,
        jitter_frac=0.0, replication=2,
    )
    world.create_container("c", preferred_site=OLD, replica_sites=[OLD, THIRD])
    world.create_container("d", preferred_site=OLD, replica_sites=[OLD, THIRD, TARGET])
    return world


def run(client, op):
    tx = client.start_tx()
    yield from op(tx)
    return (yield from client.commit(tx))


def test_cset_add_during_a_handover_to_a_new_replica_aborts_and_replicas_converge():
    """A cset add needs no lease, so before the hand-over rule covered it
    one could commit at a third site while the lease was revoked: its
    record went to the joining target trimmed, and reached the old site
    only after the target's copy was taken, so the new replica never
    held it.  Under partial replication a revoked lease now refuses the
    add, and every replica of the container ends equal."""
    world = partial_world()
    members = world.config.container("c").new_id(ObjectKind.CSET)
    writer = world.new_client(OLD)
    seed_oid = world.config.container("d").new_id()
    outcomes = {}

    def committed_at_old(tx):
        yield from writer.write(tx, seed_oid, b"behind")

    def add_at_third(tx):
        yield from third.set_add(tx, members, "x")

    third = world.new_client(THIRD)
    # The target lags the old site by one commit, so the hand-over
    # cannot grant at the revoke instant.
    assert world.run_process(run(writer, committed_at_old)) == "COMMITTED"

    def migrate():
        yield from world.migrate_preferred_site("c", TARGET)
        outcomes["migration"] = world.kernel.now

    def adder():
        outcomes["add"] = yield from run(third, add_at_third)

    world.kernel.spawn(migrate(), name="migration")
    world.kernel.spawn(adder(), name="add")
    world.settle(10.0)
    assert "migration" in outcomes
    assert world.config.container("c").preferred_site == TARGET
    versions = {}
    for site in world.config.container("c").replica_sites:
        history = world.servers[site].histories.get(members)
        versions[site] = [] if history is None else sorted(str(e.version) for e in history)
    assert len({str(v) for v in versions.values()}) == 1, versions
    assert outcomes["add"] == "ABORTED"


def test_handover_to_a_caught_up_replica_grants_at_the_revoke_instant_without_rpc():
    world = Deployment(n_sites=3, flush_latency=FLUSH_MEMORY, seed=39, jitter_frac=0.0)
    world.create_container("c", preferred_site=OLD)
    world.settle(1.0)
    sent = world.network.stats.sent
    revoked_at = world.kernel.now
    granted = []

    def migrate():
        yield from world.migrate_preferred_site("c", TARGET)
        granted.append(world.kernel.now)

    world.kernel.spawn(migrate(), name="migration")
    world.run(until=revoked_at)
    assert granted == [revoked_at]
    assert world.config.holds_preferred_lease("c", TARGET)
    assert world.network.stats.sent == sent
    histogram = world.obs.registry.histogram(
        "recovery.handover_s", caller="migrate", outcome="granted")
    assert (histogram.count, histogram.sum) == (1, 0.0)


def test_handback_to_a_caught_up_site_grants_at_the_revoke_instant():
    """The re-integration hand-back takes the same fast path: the
    returning site is caught up by the rounds before it, so the lease
    goes back at the instant it is revoked instead of after a report
    round to the holders."""
    world = Deployment(n_sites=3, flush_latency=FLUSH_MEMORY, seed=39, jitter_frac=0.0)
    for site in range(3):
        world.create_container("c%d" % site, preferred_site=site)
    world.settle(1.0)
    world.fail_site(OLD)
    world.remove_site(failed_site=OLD, reassign_to=TARGET, within=120.0)
    moves = []
    suspend, reassign = world.config.suspend_lease, world.config.reassign_preferred_site

    def logged_suspend(cid):
        moves.append(("revoke", cid, world.kernel.now))
        suspend(cid)

    def logged_reassign(cid, site, **kwargs):
        moves.append(("grant", cid, world.kernel.now))
        reassign(cid, site, **kwargs)

    world.config.suspend_lease = logged_suspend
    world.config.reassign_preferred_site = logged_reassign
    world.reintegrate_site(OLD, within=120.0)
    assert world.config.holds_preferred_lease("c0", OLD)
    revoked = [t for kind, cid, t in moves if kind == "revoke" and cid == "c0"]
    granted = [t for kind, cid, t in moves if kind == "grant" and cid == "c0"]
    assert len(revoked) == 1 and granted and set(granted) == set(revoked)
    histogram = world.obs.registry.histogram(
        "recovery.handover_s", caller="handback", outcome="granted")
    assert (histogram.count, histogram.sum) == (1, 0.0)
