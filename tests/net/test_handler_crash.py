"""A crash on the handler path: a request waiting for the CPU is a kernel
callback, not a process, so the crash voids it through the host's
incarnation; a handler that blocked is a child process, so the crash
interrupts it and its ``finally`` blocks run.  Neither sends a reply."""

from types import SimpleNamespace

from repro.net import Host, Network, RpcTimeout, Topology, service_time
from repro.obs.metrics import MetricsRegistry
from repro.sim import Kernel, Lock, Resource

COST = 0.004


class Station(Host):
    def __init__(self, kernel, network):
        super().__init__(kernel, network, 0, "station")
        self.cpu = Resource(kernel, 1, name="station.cpu")
        self.costs = SimpleNamespace(op=COST)
        self.commit_lock = Lock(kernel, name="station.commit")
        self.entered = []
        self.cleaned_up = []

    @service_time("op")
    def rpc_work(self, tag):
        self.entered.append(tag)
        return tag

    @service_time("op")
    def rpc_commit(self, tag):
        self.entered.append(tag)
        try:
            yield self.commit_lock.acquire()
            self.commit_lock.release()
            return tag
        finally:
            self.cleaned_up.append(tag)


def make_world():
    """The station at site 0 and its client at site 1, so the station's
    own sends are ``net.sent{site=0}``."""
    kernel = Kernel()
    registry = MetricsRegistry()
    net = Network(kernel, Topology.ec2(2), jitter_frac=0.0, registry=registry)
    station = Station(kernel, net)
    client = Host(kernel, net, 1, "client")
    station.start()
    client.start()
    return kernel, net, client, station, registry.counter("net.sent", site=0)


def call_into(kernel, client, method, tag, outcomes):
    def caller():
        try:
            outcomes.append((yield from client.call("station", method, tag=tag, timeout=1.0)))
        except RpcTimeout:
            outcomes.append("timeout")

    kernel.spawn(caller())


def test_request_booked_when_its_host_crashes_never_runs():
    kernel, net, client, station, station_sent = make_world()
    outcomes = []
    for tag in ("in service", "queued"):
        call_into(kernel, client, "work", tag, outcomes)
    arrival = net.topology.one_way(1, 0)
    kernel.run(until=arrival + COST / 2)
    assert station.cpu.in_use == 1 and station.entered == []
    assert not station._children  # a booked request is no process
    sent = station_sent.value
    station.crash()
    kernel.run()
    assert station.entered == []
    assert station_sent.value == sent  # no reply, not even a dropped one
    assert outcomes == ["timeout", "timeout"]
    # The restarted host serves again, on a free core.
    net.recover_host("station")
    station.start()
    outcomes.clear()
    call_into(kernel, client, "work", "later", outcomes)
    kernel.run()
    assert outcomes == ["later"] and station.entered == ["later"]


def test_handler_blocked_on_the_commit_lock_runs_its_finally_on_crash():
    kernel, net, client, station, station_sent = make_world()
    outcomes = []
    station.commit_lock.acquire()  # held by someone else
    call_into(kernel, client, "commit", "blocked", outcomes)
    kernel.run(until=net.topology.one_way(1, 0) + 2 * COST)
    assert station.entered == ["blocked"] and station.cleaned_up == []
    [handler] = station._children
    assert not handler.done
    sent = station_sent.value
    station.crash()
    kernel.run()
    assert handler.done and station.cleaned_up == ["blocked"]
    assert station_sent.value == sent
    assert outcomes == ["timeout"]
