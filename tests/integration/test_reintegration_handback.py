"""Re-integration hands leases back only to a caught-up site (chaos
seed 613).

``reintegrate_site`` synchronizes the returning site against a *donor*
(the first survivor), but the containers displaced from it are held by
the ``reassign_to`` site, which need not be the donor.  A transaction the
holder fast-committed on a displaced container that has not reached the
donor yet is in neither catch-up round, so granting the lease straight
back let the returning site fast-commit over it.  The hand-back now
suspends the lease, catches the returning site up to the best GotVTS
over the survivors (the holder's included), and only then grants.
"""

import pytest

from repro.deployment import Deployment
from repro.net import RpcTimeout, Topology
from repro.spec import check_trace
from repro.storage import FLUSH_MEMORY

RETURNING, DONOR, HOLDER = 0, 1, 2


def make_world():
    """Three sites; the holder -> donor link is two orders of magnitude
    slower than the rest, so what the holder commits reaches the donor
    long after a re-integration has finished."""
    topology = Topology(
        ["A", "B", "C"],
        {
            ("A", "A"): 0.5, ("B", "B"): 0.5, ("C", "C"): 0.5,
            ("A", "B"): 20.0, ("A", "C"): 20.0, ("B", "C"): 2000.0,
        },
    )
    world = Deployment(
        topology=topology, flush_latency=FLUSH_MEMORY, seed=613,
        jitter_frac=0.0, trace=True,
    )
    for site in range(3):
        world.create_container("c%d" % site, preferred_site=site)
    return world


def commit_write(world, client, oid, value):
    def op():
        tx = client.start_tx()
        yield from client.write(tx, oid, value)
        return (yield from client.commit(tx))

    return world.run_process(op())


def read_value(world, site, oid):
    def op(client):
        tx = client.start_tx()
        value = yield from client.read(tx, oid)
        yield from client.commit(tx)
        return value

    return world.run_process(op(world.new_client(site)))


def displace(world):
    """Fail the returning site and move its container to the holder;
    returns an object of that container."""
    oid = world.config.container("c0").new_id()
    assert commit_write(world, world.new_client(RETURNING), oid, b"home") == "COMMITTED"
    world.settle(5.0)
    world.fail_site(RETURNING)
    world.remove_site(failed_site=RETURNING, reassign_to=HOLDER, within=120.0)
    assert world.config.container("c0").preferred_site == HOLDER
    return oid


def test_returning_site_has_the_holders_commits_before_its_first_fast_commit():
    world = make_world()
    oid = displace(world)
    # The holder fast-commits on the displaced container; the commit is
    # still a second away from the donor when re-integration starts.
    assert commit_write(world, world.new_client(HOLDER), oid, b"while-away") == "COMMITTED"
    seqno = world.servers[HOLDER].curr_seqno
    assert world.servers[DONOR].got_vts[HOLDER] < seqno

    # A second holder commit lands inside the final catch-up round: the
    # holder has answered its report, and the reply is still crossing
    # the slow link when the commit happens.  The record reaches the
    # returning site at once, but its DS durability waits on the donor's
    # ack over that link, so it is applied there and not yet committed
    # when the hand-back grants.
    holder_client = world.new_client(HOLDER)
    late = []

    def holder_writes_during_the_final_round():
        while not world.config.is_active(RETURNING):
            yield world.kernel.timeout(0.001)
        yield world.kernel.timeout(1.5)
        tx = holder_client.start_tx()
        yield from holder_client.write(tx, oid, b"late")
        late.append((yield from holder_client.commit(tx)))
        late.append(world.servers[HOLDER].curr_seqno)

    world.kernel.spawn(holder_writes_during_the_final_round(), name="late-holder-write")
    world.reintegrate_site(RETURNING, within=120.0)
    assert world.config.container("c0").preferred_site == RETURNING
    assert world.config.holds_preferred_lease("c0", RETURNING)
    # The lease is back, so the next write fast-commits here: the
    # conflict check is only sound if the holder's commits are applied.
    assert late and late[0] == "COMMITTED"
    late_seqno = late[1]
    returning = world.servers[RETURNING]
    assert returning.got_vts[HOLDER] >= late_seqno > seqno
    assert returning.committed_vts[HOLDER] < late_seqno

    client = world.new_client(RETURNING)
    # Applied but not yet committed here, so it is outside a new
    # snapshot: a blind overwrite right now is a write-write conflict
    # and must be refused.
    assert commit_write(world, client, oid, b"too-early") == "ABORTED"
    world.settle(15.0)
    assert commit_write(world, client, oid, b"back-home") == "COMMITTED"
    assert world.servers[RETURNING].stats.slow_commit_attempts == 0
    world.settle(15.0)
    violations = check_trace(world.trace, abandoned=world.abandoned_versions)
    assert violations == [], "\n".join(str(v) for v in violations)
    for site in range(3):
        assert read_value(world, site, oid) == b"back-home"


def test_unreachable_holder_keeps_the_lease():
    """If the holder cannot be reached the hand-back fails, and the
    suspended leases go back to the holder -- not to nobody, and not to
    a returning site that may be missing commits."""
    world = make_world()
    displace(world)
    world.network.partition(DONOR, HOLDER)  # the coordinator runs at the donor
    with pytest.raises(RpcTimeout):
        world.reintegrate_site(RETURNING, within=600.0)
    assert world.config.container("c0").preferred_site == HOLDER
    assert world.config.holds_preferred_lease("c0", HOLDER)
    assert world.config.displaced == {"c0": RETURNING}
