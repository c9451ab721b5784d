"""The CPU station is modelled once, in ``Host._serve``: an ``rpc_*``
handler declares a :func:`~repro.net.service_time` and the host books one
of its ``cpu`` cores FIFO for that long, then runs the handler
(DESIGN.md §5).
"""

from types import SimpleNamespace

import pytest

from repro.core.objects import ObjectKind
from repro.deployment import Deployment
from repro.net import Host, Network, RpcRemoteError, Topology, service_time
from repro.server import WalterServer
from repro.sim import Kernel, Resource

COST = 0.004


class Station(Host):
    def __init__(self, kernel, network, cores=1):
        super().__init__(kernel, network, 0, "station")
        self.cpu = Resource(kernel, cores, name="station.cpu")
        self.costs = SimpleNamespace(op=COST)
        self.entered = []

    def _enter(self, tag):
        self.entered.append((tag, self.kernel.now, self.cpu.in_use))
        return tag

    @service_time("op")
    def rpc_work(self, tag):
        return self._enter(tag)

    @service_time(lambda host, tag, units: units * host.costs.op)
    def rpc_scaled(self, tag, units):
        return self._enter(tag)

    def rpc_free(self, tag):
        return self._enter(tag)


class Stationless(Host):
    def __init__(self, kernel, network):
        super().__init__(kernel, network, 0, "station")

    @service_time(lambda host: COST)
    def rpc_work(self):
        return "served for free"


def make_world(*station_args, station=Station):
    kernel = Kernel()
    net = Network(kernel, Topology.ec2(1), jitter_frac=0.0)
    server = station(kernel, net, *station_args)
    client = Host(kernel, net, 0, "client")
    server.start()
    client.start()
    return kernel, net, client, server


def round_trip(method, **args):
    """Simulated seconds one call takes in a fresh world (so every call
    starts at t=0 and the floats compare exactly)."""
    kernel, _net, client, server = make_world()
    kernel.run_process(client.call("station", method, tag="t", **args))
    return kernel.now, server


def test_declared_cost_holds_one_slot_for_exactly_that_long():
    wire, _ = round_trip("free")
    served, server = round_trip("work")
    assert served - wire == pytest.approx(COST, rel=1e-9)
    assert server.cpu.total_busy_time == pytest.approx(COST, rel=1e-9)
    # The handler runs after the charge, with the core already released.
    [(tag, at, in_use)] = server.entered
    assert tag == "t" and in_use == 0 and at == pytest.approx(wire / 2 + COST, rel=1e-9)


def test_cost_may_be_a_function_of_the_request():
    wire, _ = round_trip("free")
    served, server = round_trip("scaled", units=3)
    assert served - wire == pytest.approx(3 * COST, rel=1e-9)
    assert server.cpu.total_busy_time == pytest.approx(3 * COST, rel=1e-9)


@pytest.mark.parametrize("cores", [1, 2, 3])
def test_request_beyond_capacity_queues_fifo_and_replies_one_cost_later(cores):
    kernel, _net, client, server = make_world(cores)
    replies = []

    def caller(tag):
        yield from client.call("station", "work", tag=tag)
        replies.append((tag, kernel.now))

    for tag in range(cores + 1):
        kernel.spawn(caller(tag))
    kernel.run()
    assert [tag for tag, _at, _in_use in server.entered] == list(range(cores + 1))
    assert [tag for tag, _at in replies] == list(range(cores + 1))
    wire, _ = round_trip("free")
    times = [at for _tag, at in replies]
    assert times[:cores] == [pytest.approx(wire + COST, rel=1e-9)] * cores
    assert times[cores] == pytest.approx(wire + 2 * COST, rel=1e-9)


def test_crash_during_service_time_releases_the_slot():
    kernel, net, client, server = make_world()
    wire, _ = round_trip("free")
    kernel.spawn(client.call("station", "work", tag="doomed"))
    kernel.run(until=wire / 2 + COST / 2)
    assert server.cpu.in_use == 1
    server.crash()
    kernel.run()  # the kill reaches the serving process on the next kernel step
    assert server.cpu.in_use == 0 and server.entered == []
    net.recover_host("station")
    server.start()
    assert kernel.run_process(client.call("station", "work", tag="later", timeout=1.0)) == "later"
    assert [tag for tag, _at, _in_use in server.entered] == ["later"]


def test_crash_with_a_request_queued_frees_the_station():
    """A request waiting for the core dies with the host too: it must not
    be handed the core later and keep it forever."""
    kernel, net, client, server = make_world()
    wire, _ = round_trip("free")
    for tag in ("served", "queued"):
        kernel.spawn(client.call("station", "work", tag=tag))
    kernel.run(until=wire / 2 + COST / 2)
    assert server.cpu.in_use == 1
    server.crash()
    kernel.run()
    assert server.cpu.in_use == 0 and server.entered == []
    net.recover_host("station")
    server.start()
    assert kernel.run_process(client.call("station", "work", tag="later", timeout=1.0)) == "later"
    assert [tag for tag, _at, _in_use in server.entered] == ["later"]


def test_declared_cost_without_a_station_is_an_error_reply():
    kernel, _net, client, _server = make_world(station=Stationless)
    with pytest.raises(RpcRemoteError, match="rpc_work declares a service time.*no cpu station"):
        kernel.run_process(client.call("station", "work"))


# ----------------------------------------------------------------------
# Walter's handlers
# ----------------------------------------------------------------------
#: Charge the station themselves, mid-handler, each with its reason in
#: the source (milestones around the charge; fan-out known only late).
CHARGES_ITSELF = {"rpc_tx_commit", "rpc_tx_read_cset_objects"}
#: Bookkeeping answers that were never charged: dropping a transaction
#: and looking up a 2PC decision.
FREE = {"rpc_tx_abort", "rpc_tx_decision"}


def test_every_walter_data_path_handler_meets_the_station():
    """A new rpc_tx_* / rpc_remote_* handler cannot silently skip the CPU
    queue: it declares a cost or is named above."""
    names = [
        name
        for name in dir(WalterServer)
        if name.startswith(("rpc_tx_", "rpc_remote_")) or name == "rpc_prepare"
    ]
    assert len(names) >= 15
    undeclared = {n for n in names if not hasattr(getattr(WalterServer, n), "service_time")}
    assert undeclared == CHARGES_ITSELF | FREE


def walter_round_trip(method, kind):
    world = Deployment(n_sites=1, jitter_frac=0.0)
    world.create_container("c0", preferred_site=0)
    oid = world.config.container("c0").new_id(kind)
    server = world.server(0)
    caller = Host(world.kernel, world.network, 0, "raw-client")
    caller.start()
    world.run_process(caller.call(server.address, method, tid="raw:1", oid=oid))
    assert server.cpu.total_busy_time == pytest.approx(server.costs.read_op, rel=1e-9)
    return world.kernel.now


def test_set_read_costs_what_a_read_costs():
    """``tx_set_read`` is ``tx_read`` under another name; served through a
    delegating wrapper it would skip the declared charge."""
    read = walter_round_trip("tx_read", ObjectKind.REGULAR)
    assert walter_round_trip("tx_set_read", ObjectKind.CSET) == read
