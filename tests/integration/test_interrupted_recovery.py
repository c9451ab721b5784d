"""Recovery protocols that a crash interrupts (chaos seeds 298, 603,
817, 906, 970).

* A removal that stops part-way -- a survivor's ``recovery_report``
  times out -- leaves the survivors without an agreed bound.  The
  re-integration of the removed site finishes it first, so the returning
  site truncates to what every survivor agreed on, not to the reading of
  whichever survivor it asks.
* Survivors retire a propagation tracker once the active set acked, and
  a re-integrating site is not in that set until activation.  What the
  survivors committed during the pre-activation round is delivered by
  the post-activation round alone; if that round is cut short, the
  deployment catches the site up again, and a replacement server is fed
  what its live peers hold instead of waiting for retransmissions that
  will never come.
"""

import pytest

from repro.core.versions import Version
from repro.deployment import Deployment
from repro.net import RpcTimeout, Topology
from repro.storage import FLUSH_MEMORY

SURVIVOR, RETURNING, OTHER = 0, 1, 2


def commit_write(world, site, oid, value):
    client = world.new_client(site)

    def op():
        tx = client.start_tx()
        yield from client.write(tx, oid, value)
        return (yield from client.commit(tx))

    return world.run_process(op(), within=120.0)


def read_value(world, site, oid):
    client = world.new_client(site)

    def op():
        tx = client.start_tx()
        value = yield from client.read(tx, oid)
        yield from client.commit(tx)
        return value

    return world.run_process(op(), within=120.0)


def expect_rpc_timeout(world, gen):
    """Run a recovery generator that must fail with ``RpcTimeout``.  It
    fails inside a process that catches it, so the failure is not left
    behind as an orphan that the next ``run()`` would re-raise."""

    def catching():
        with pytest.raises(RpcTimeout):
            yield from gen

    world.run_process(catching(), within=600.0)


def make_world(topology=None):
    world = Deployment(
        n_sites=3, topology=topology, flush_latency=FLUSH_MEMORY,
        jitter_frac=0.0, trace=True,
    )
    for site in range(3):
        world.create_container("c%d" % site, preferred_site=site)
    return world


def test_reintegration_finishes_an_unfinished_removal():
    """The 906 shape: the removal of site 1 stops at a crashed survivor
    (site 0), which never received site 1's last commit; site 2 did."""
    world = make_world()
    first, last = (world.config.container("c1").new_id() for _ in range(2))
    assert commit_write(world, RETURNING, first, b"first") == "COMMITTED"
    world.settle(3.0)
    world.network.partition(SURVIVOR, RETURNING)
    assert commit_write(world, RETURNING, last, b"last") == "COMMITTED"
    world.settle(3.0)
    received = world.servers[OTHER].got_vts[RETURNING]
    assert world.servers[SURVIVOR].got_vts[RETURNING] < received
    kept = {
        seqno: world.servers[OTHER]._records_by_version[Version(RETURNING, seqno)].tid
        for seqno in range(1, received + 1)
    }

    world.crash_server(SURVIVOR)
    world.fail_site(RETURNING)
    expect_rpc_timeout(world, world.remove_site_gen(RETURNING, reassign_to=OTHER))
    world.replace_server(SURVIVOR)
    world.reintegrate_site(RETURNING, within=120.0)
    world.settle(10.0)

    committed = {tuple(server.committed_vts) for server in world.servers}
    assert len(committed) == 1, committed
    for server in world.servers:
        assert server.committed_vts[RETURNING] >= received
        for seqno, tid in kept.items():
            assert server._records_by_version[Version(RETURNING, seqno)].tid == tid
    for site in range(3):
        assert read_value(world, site, last) == b"last"
    assert world.recovery_errors == []


def far_returning_site():
    """Site 1 is a 2 s round trip from the others, so each re-integration
    RPC to it leaves the survivors time to commit and retire a record."""
    return make_world(Topology(
        ["A", "B", "C"],
        {
            ("A", "A"): 0.5, ("B", "B"): 0.5, ("C", "C"): 0.5,
            ("A", "B"): 2000.0, ("B", "C"): 2000.0, ("A", "C"): 20.0,
        },
    ))


def reintegrate_with_a_retired_window(world, crash_at_activation):
    """Remove site 1, commit at the survivors while it is away, then
    re-integrate it while site 0 commits once more *after* the
    pre-activation round read the survivors' reports: that record is
    retired against the old active set before site 1 is activated.
    ``crash_at_activation`` crashes a server the moment site 1 becomes
    active, which cuts the post-activation round short."""
    world.fail_site(RETURNING)
    world.remove_site(failed_site=RETURNING, reassign_to=SURVIVOR, within=120.0)
    for site in (SURVIVOR, OTHER):
        oid = world.config.container("c%d" % site).new_id()
        assert commit_write(world, site, oid, b"while-away") == "COMMITTED"
    world.settle(3.0)
    window = world.config.container("c0").new_id()

    def write_in_window():
        yield world.kernel.timeout(5.0)
        client = world.new_client(SURVIVOR)
        tx = client.start_tx()
        yield from client.write(tx, window, b"window")
        assert (yield from client.commit(tx)) == "COMMITTED"

    def crash_on_activation():
        while not world.config.is_active(RETURNING):
            yield world.kernel.timeout(0.001)
        world.crash_server(crash_at_activation)

    world.kernel.spawn(write_in_window())
    world.kernel.spawn(crash_on_activation())
    expect_rpc_timeout(world, world.reintegrate_site_gen(RETURNING))
    assert world.config.is_active(RETURNING)
    return window


def caught_up(world, site, peers):
    server = world.servers[site]
    return all(server.got_vts.dominates(world.servers[p].got_vts) for p in peers)


def test_replacement_of_an_interrupted_returning_site_is_fed_the_window():
    """The 603 shape: the returning server crashes during the
    post-activation round and is replaced."""
    world = far_returning_site()
    window = reintegrate_with_a_retired_window(world, crash_at_activation=RETURNING)
    assert not caught_up(world, RETURNING, (SURVIVOR, OTHER))
    replacement = world.replace_server(RETURNING)
    world.settle(20.0)

    assert caught_up(world, RETURNING, (SURVIVOR, OTHER))
    assert replacement.commit_admission_open()
    assert sum(server.stats.retransmissions for server in world.servers) == 0
    assert read_value(world, RETURNING, window) == b"window"
    assert world.recovery_errors == []


def test_returning_site_is_caught_up_when_a_source_crashes_mid_round():
    """The 817 shape: a survivor the post-activation round reads from
    crashes instead; the returning site stays active and must not stay
    behind."""
    world = far_returning_site()
    window = reintegrate_with_a_retired_window(world, crash_at_activation=SURVIVOR)
    world.settle(20.0)

    assert caught_up(world, RETURNING, (OTHER,))
    assert sum(server.stats.retransmissions for server in world.servers) == 0
    assert read_value(world, RETURNING, window) == b"window"
    assert world.recovery_errors == []
