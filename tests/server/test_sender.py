"""The origin's propagation sender and the server's maintenance chains
are kernel timers: idle time schedules nothing that a later commit pays
for, and stopping a server voids every timer it owns."""

from collections import Counter

from repro.deployment import Deployment
from repro.server import WalterServer
from repro.server.propagation import IN_FLIGHT


def commit_write(world, client, oid, data):
    def scenario():
        tx = client.start_tx()
        yield from client.write(tx, oid, data)
        return (yield from client.commit(tx))

    return world.run_process(scenario(), within=120.0)


def second_commit_events(idle: float) -> int:
    """Kernel events one commit costs after the sender sat idle for
    ``idle`` simulated seconds (its idle tick firing all along)."""
    world = Deployment(n_sites=2, seed=3)
    world.create_container("c0", preferred_site=0)
    client = world.new_client(0)
    oid = client.new_id("c0")
    assert commit_write(world, client, oid, b"first") == "COMMITTED"
    world.settle(1.0 + idle)
    before = world.kernel.events_executed
    assert commit_write(world, client, oid, b"second") == "COMMITTED"
    return world.kernel.events_executed - before


def test_idle_time_costs_the_sender_nothing():
    assert [second_commit_events(idle) for idle in (0.0, 10.0, 60.0)] == [
        second_commit_events(0.0)
    ] * 3


def test_stopping_a_server_voids_all_its_timers(monkeypatch):
    calls = Counter()
    for name in ("lease_sweep", "gc_histories", "take_checkpoint"):
        original = getattr(WalterServer, name)

        def counted(self, *args, _name=name, _original=original, **kwargs):
            calls[self.site_id, _name] += 1
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(WalterServer, name, counted)

    world = Deployment(n_sites=2, seed=5)
    for server in world.servers:
        server.start_gc(interval=0.5)
        server.enable_checkpointing(interval=0.5)
    clients = []
    for site in (0, 1):
        world.create_container("c%d" % site, preferred_site=site)
        clients.append(world.new_client(site))
    world.settle(1.2)

    # Both sites commit into a partition: each has a batch in flight
    # that only retransmission can deliver.
    world.network.partition(0, 1)
    for site, client in enumerate(clients):
        oid = client.new_id("c%d" % site)
        assert commit_write(world, client, oid, b"cut off") == "COMMITTED"
    crashed = world.server(1)
    assert crashed._sender == IN_FLIGHT

    def counts(site):
        server = world.server(site)
        return (
            server.stats.batches_sent,
            server.stats.retransmissions,
            server.stats.gc_removed,
            calls[site, "gc_histories"],
            calls[site, "lease_sweep"],
            calls[site, "take_checkpoint"],
        )

    world.crash_server(1)
    frozen, survivor = counts(1), counts(0)
    assert all(frozen[3:]), frozen  # every chain had been ticking
    world.settle(10.0)
    assert counts(1) == frozen
    # The survivor's timers kept running through the same stretch.
    later = counts(0)
    assert later[1] > survivor[1]  # retransmissions into the partition
    assert all(after > before for after, before in zip(later[3:], survivor[3:]))


def test_restart_within_one_interval_runs_one_sweeper(monkeypatch):
    sweeps = Counter()
    original = WalterServer.lease_sweep

    def counted(self):
        sweeps[self.site_id] += 1
        return original(self)

    monkeypatch.setattr(WalterServer, "lease_sweep", counted)
    world = Deployment(n_sites=2, seed=5)
    interval = WalterServer.leases.sweep_interval
    world.settle(interval * 1.5)
    restarted = world.server(1)
    restarted.stop()
    restarted.start()  # before the stopped chain's next tick
    sweeps.clear()
    world.settle(interval * 10)
    assert sweeps[1] == sweeps[0] == 10
