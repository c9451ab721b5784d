"""Rollback path of ``Deployment.migrate_preferred_site`` (ISSUE 9
bugfix).

The migration suspends the container's fast-commit lease, waits for the
target to catch up, and grants.  On *any* failure -- timeout, target
crash, or the driving generator being killed -- the old site's lease
must come back exactly once, and at no point may two sites hold it
(dual fast-commit would break the PSI conflict check).
"""

import pytest

from repro.chaos import FaultEvent, FaultInjector, Schedule
from repro.deployment import Deployment
from repro.storage import FLUSH_MEMORY


def make_world(n_sites=3):
    world = Deployment(
        n_sites=n_sites, flush_latency=FLUSH_MEMORY, seed=11, jitter_frac=0.0
    )
    for site in range(n_sites):
        world.create_container("c%d" % site, preferred_site=site)
    return world


def holder(world, cid):
    return world.config._lease_holder.get(cid)


def test_successful_migration_moves_lease_once():
    world = make_world()
    world.run_process(world.migrate_preferred_site("c0", 1))
    assert world.config.container("c0").preferred_site == 1
    assert holder(world, "c0") == 1


def test_timeout_rolls_back_to_old_site():
    world = make_world()
    world.crash_server(1)
    with pytest.raises(TimeoutError):
        world.run_process(world.migrate_preferred_site("c0", 1, within=1.0))
    assert world.config.container("c0").preferred_site == 0
    assert holder(world, "c0") == 0


def test_target_crash_mid_catchup_rolls_back():
    """Crash the target while the migration is waiting for it to catch
    up: the old lease must be restored (exactly once) and the container
    must fast-commit at the old site again afterwards."""
    world = make_world()
    client = world.new_client(0)
    oid = world.config.container("c0").new_id()

    def write(value):
        tx = client.start_tx()
        yield from client.write(tx, oid, value)
        return (yield from client.commit(tx))

    assert world.run_process(write(b"before")) == "COMMITTED"

    # Block 0 -> 1 propagation so the catch-up wait cannot complete.
    world.network.partition(0, 1)
    failures = []

    def driver():
        try:
            yield from world.migrate_preferred_site("c0", 1, within=2.0)
        except TimeoutError as exc:
            failures.append(exc)

    migration = world.kernel.spawn(driver(), name="migration")
    # Mid-handover: lease suspended, no site holds it.
    world.run(until=world.kernel.now + 0.05)
    assert holder(world, "c0") is None
    world.crash_server(1)
    world.run(until=world.kernel.now + 3.0)
    assert migration.done
    assert len(failures) == 1

    assert world.config.container("c0").preferred_site == 0
    assert holder(world, "c0") == 0
    world.network.heal(0, 1)
    assert world.run_process(write(b"after")) == "COMMITTED"


def test_killed_migration_process_still_restores_lease():
    """The driving process dying mid-migration (GeneratorExit) must not
    leave the lease suspended forever: the finally-path re-grants."""
    world = make_world()
    client = world.new_client(0)
    oid = world.config.container("c0").new_id()

    def write():
        tx = client.start_tx()
        yield from client.write(tx, oid, b"v")
        return (yield from client.commit(tx))

    assert world.run_process(write()) == "COMMITTED"
    world.network.partition(0, 1)  # catch-up cannot complete
    migration = world.kernel.spawn(
        world.migrate_preferred_site("c0", 1, within=10.0),
        name="migration",
        absorb_interrupt=True,
    )
    world.run(until=world.kernel.now + 0.05)
    assert holder(world, "c0") is None
    migration.interrupt()
    world.run(until=world.kernel.now + 0.1)
    assert migration.done
    assert world.config.container("c0").preferred_site == 0
    assert holder(world, "c0") == 0


def test_no_dual_fast_commit_window_during_rollback():
    """From revoke to the terminal grant, writes at the *target* must
    never fast-commit: the lease is either suspended or back at the old
    site, so at most one site ever admits fast commits."""
    world = make_world()
    oid = world.config.container("c0").new_id()
    owner_client = world.new_client(0)

    def seed_write():
        tx = owner_client.start_tx()
        yield from owner_client.write(tx, oid, b"seed")
        return (yield from owner_client.commit(tx))

    # A committed write the target has not seen keeps the catch-up wait
    # from completing trivially once the partition is in place.
    assert world.run_process(seed_write()) == "COMMITTED"
    target_client = world.new_client(1)
    outcomes = []

    def prober():
        while world.kernel.now < 2.5:
            tx = target_client.start_tx()
            try:
                yield from target_client.write(tx, oid, b"probe")
                outcomes.append((yield from target_client.commit(tx)))
            except Exception:  # noqa: BLE001 - aborts/timeouts expected
                outcomes.append("ERROR")
            yield world.kernel.timeout(0.1)

    world.kernel.spawn(prober(), name="prober")
    world.network.partition(0, 1)

    def driver():
        try:
            yield from world.migrate_preferred_site("c0", 1, within=2.0)
        except TimeoutError:
            pass

    migration = world.kernel.spawn(driver(), name="migration")
    world.run(until=world.kernel.now + 0.05)
    world.crash_server(1)
    # Stay crashed past the migration deadline so the rollback path runs
    # (an early replacement could legitimately let the grant succeed).
    world.run(until=world.kernel.now + 3.0)
    assert migration.done
    assert holder(world, "c0") == 0
    world.replace_server(1)
    world.network.heal(0, 1)
    world.run(until=world.kernel.now + 1.0)
    assert holder(world, "c0") == 0
    # The target never fast-committed the container while site 0 could.
    assert "COMMITTED" not in outcomes


def test_chaos_migration_crash_fault_rolls_back():
    """The injector's ``migration_crash`` fault end-to-end: start a
    handover, kill the target mid-flight, and verify the lease came back
    to the old preferred site."""
    world = make_world()
    client = world.new_client(0)
    oid = world.config.container("c0").new_id()

    def write():
        tx = client.start_tx()
        yield from client.write(tx, oid, b"v")
        return (yield from client.commit(tx))

    assert world.run_process(write()) == "COMMITTED"
    # Keep the target behind so the migration is still mid-catch-up when
    # the fault's killer fires.
    world.network.partition(0, 1)
    injector = FaultInjector(
        world,
        Schedule(
            [
                FaultEvent(
                    0.2,
                    "migration_crash",
                    {"cid": "c0", "to_site": 1, "kill_after": 0.1},
                )
            ]
        ),
    )
    injector.start()
    world.run(until=8.0)
    world.run_process(injector.quiesce())
    assert "migration_crash" in injector.applied
    # The migration itself timed out (recorded, not raised) ...
    assert any(fault == "migration_crash" for fault, _ in injector.errors)
    # ... and the rollback restored the old site's lease exactly once.
    assert world.config.container("c0").preferred_site == 0
    assert holder(world, "c0") == 0


def test_hand_over_leaves_a_container_another_one_granted_meanwhile():
    """Two hand-overs of one container overlap (a migration and a site
    removal's reassignment): the one granting second must not take the
    lease from the first, whose site may already have admitted writes
    that the second one's frontier, read earlier, does not hold."""
    world = Deployment(n_sites=3, flush_latency=FLUSH_MEMORY, seed=11, jitter_frac=0.0)
    world.create_container("c0", preferred_site=0, replica_sites={0, 2})
    migration = world.kernel.spawn(world.migrate_preferred_site("c0", 1), name="migrate")

    def regrant():
        yield world.kernel.timeout(0.001)  # mid-way: site 1 gets a copy first
        assert holder(world, "c0") is None and not migration.done
        world.config.reassign_preferred_site("c0", 2)

    world.run_process(regrant())
    world.settle(2.0)
    assert migration.done
    assert world.config.container("c0").preferred_site == 2 and holder(world, "c0") == 2
