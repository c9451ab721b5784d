"""Tests for the message path: the network hands each message straight to
its host inside the delivery event, handlers start and callers resume in
that same event, and a host that is not running queues in its mailbox.

The event budgets are the point of the design (DESIGN.md §10): a round
trip costs the steps the model needs -- a delivery, the handler's own
waits, a delivery back -- and nothing else.  So does the allocation
budget: a handler is a ``Process`` only while it blocks.
"""

import pytest

from repro.net import Host, Network, Topology, service_time
from repro.sim import Kernel, Resource


class Server(Host):
    SERVICE_S = 20e-6

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.cpu = Resource(self.kernel, capacity=1, name="cpu")
        self.seen = []

    def rpc_echo(self, text):
        return text

    @service_time(lambda server, text: server.SERVICE_S)
    def rpc_serviced_echo(self, text):
        # The shape of rpc_tx_read: Host._serve books the CPU for the
        # declared service time before this runs.
        return text

    @service_time(lambda server, text: server.SERVICE_S)
    def rpc_blocking_echo(self, text):
        yield self.kernel.timeout(1e-3)
        return text

    def on_note(self, src, value):
        self.seen.append(value)

    def on_slow_note(self, src, value):
        self.seen.append(("start", value))
        yield self.kernel.timeout(1.0)
        self.seen.append(("end", value))

    def on_boom(self, src):
        raise ValueError("cast handler failed")


def make_world(n_sites=1, start=True):
    kernel = Kernel()
    net = Network(kernel, Topology.ec2(n_sites), jitter_frac=0.0)
    server = Server(kernel, net, 0, "server")
    client = Host(kernel, net, 0, "client")
    if start:
        server.start()
    client.start()
    return kernel, net, client, server


def events_for(kernel, gen):
    before = kernel.events_executed
    kernel.run_process(gen)
    return kernel.events_executed - before


# ----------------------------------------------------------------------
# Event budget
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "method, budget",
    [
        # request delivery (handler runs, replies) + reply delivery (caller
        # resumes); the +1 is run_process starting the caller.  Parent: 6.
        ("echo", 2),
        # ... + the end of the booked cpu service.  Parent: 4 (a grant
        # event, then a service timeout).
        ("serviced_echo", 3),
    ],
)
def test_rpc_round_trip_event_budget(method, budget):
    kernel, _net, client, _server = make_world()

    def one_call():
        value = yield from client.call("server", method, text="x", timeout=5.0)
        assert value == "x"

    # Steady state: the first call arms the host's deadline timer, whose
    # heap entry is not an executed event (it lies 5 s ahead).
    for _ in range(3):
        assert events_for(kernel, one_call()) == budget + 1


def test_cast_costs_one_event():
    kernel, _net, client, server = make_world()
    before = kernel.events_executed
    client.cast("server", "note", value=1)
    kernel.run()
    assert server.seen == [1]
    assert kernel.events_executed - before == 1  # parent: 2


@pytest.mark.parametrize(
    "method, budget",
    # Parent: 1 each (the _serve process).
    [("echo", 0), ("serviced_echo", 0), ("blocking_echo", 1)],
)
def test_rpc_round_trip_process_budget(method, budget, processes_made):
    kernel, _net, client, _server = make_world()
    for _ in range(3):
        del processes_made[:]
        # No caller process either: the reply event alone is awaited.
        reply = client.send_request("server", method, text="x", timeout=5.0)
        kernel.run()
        assert reply.value == "x"
        assert len(processes_made) == budget


@pytest.mark.parametrize(
    "method, budget, seen",
    [("note", 0, [1]), ("slow_note", 1, [("start", 1), ("end", 1)])],
)
def test_cast_process_budget(method, budget, seen, processes_made):
    kernel, _net, client, server = make_world()
    client.cast("server", method, value=1)
    kernel.run()
    assert server.seen == seen
    assert len(processes_made) == budget


def test_answered_calls_leave_no_timers_behind():
    """One deadline timer per host, not one dead heap entry per call."""
    kernel, _net, client, _server = make_world()

    def many_calls():
        for index in range(1000):
            yield from client.call("server", "echo", text=index, timeout=1e6)

    kernel.run_process(many_calls())
    assert len(kernel._heap) <= 2  # hosts; parent: 1 000
    assert not client._deadlines and not client._pending


# ----------------------------------------------------------------------
# Delivery
# ----------------------------------------------------------------------
def test_unstarted_host_holds_mail_until_start():
    kernel, _net, client, server = make_world(start=False)
    for value in range(5):
        client.cast("server", "note", value=value)
    kernel.run()
    assert server.seen == [] and len(server.mailbox) == 5
    server.start()
    assert server.seen == [0, 1, 2, 3, 4] and len(server.mailbox) == 0
    client.cast("server", "note", value=5)
    kernel.run()
    assert server.seen == [0, 1, 2, 3, 4, 5]


def test_stopped_host_holds_mail_until_restart():
    kernel, _net, client, server = make_world()
    client.cast("server", "note", value="before")
    kernel.run()
    server.stop()
    for value in range(3):
        client.cast("server", "note", value=value)
    kernel.run()
    assert server.seen == ["before"] and len(server.mailbox) == 3
    server.start()
    assert server.seen == ["before", 0, 1, 2]

    def ask():
        return (yield from client.call("server", "echo", text="again", timeout=1.0))

    assert kernel.run_process(ask()) == "again"


def test_crash_drops_held_and_in_flight_mail():
    kernel, net, client, server = make_world(start=False)
    client.cast("server", "note", value="held")
    kernel.run()
    assert len(server.mailbox) == 1
    client.cast("server", "note", value="in flight")
    server.crash()
    kernel.run()
    assert len(server.mailbox) == 0
    net.recover_host("server")
    server.start()
    assert server.seen == []


def test_takeover_discards_queue_and_survives_late_stop_of_predecessor():
    kernel, _net, client, old = make_world(start=False)
    client.cast("server", "note", value="for the predecessor")
    kernel.run()
    assert len(old.mailbox) == 1
    new = Server(kernel, old.network, 0, "server", takeover=True)
    new.start()
    assert new.seen == [] and len(new.mailbox) == 0
    # Also when the predecessor was running and is only stopped afterwards:
    # its stop() must not put its own mailbox back over the replacement.
    newer = Server(kernel, old.network, 0, "server", takeover=True)
    newer.start()
    new.stop()
    old.stop()
    client.cast("server", "note", value="for the replacement")
    kernel.run()
    assert newer.seen == ["for the replacement"]
    assert old.seen == [] and new.seen == []
    assert len(old.mailbox) == 1 and len(new.mailbox) == 0


def test_same_instant_deliveries_are_handled_in_send_order():
    kernel, _net, client, server = make_world()
    other = Host(kernel, client.network, 0, "other")
    # Same link, same size, no jitter: both arrive at the identical instant.
    client.cast("server", "slow_note", value="a")
    other.cast("server", "slow_note", value="b")
    client.cast("server", "note", value="c")
    kernel.run(until=0.5)
    assert server.seen == [("start", "a"), ("start", "b"), "c"]
    kernel.run()
    assert server.seen[3:] == [("end", "a"), ("end", "b")]


def test_raising_cast_handler_surfaces_from_run():
    kernel, _net, client, _server = make_world()
    client.cast("server", "boom")
    with pytest.raises(ValueError, match="cast handler failed"):
        kernel.run()


def test_cast_without_handler_surfaces_from_run():
    kernel, _net, client, _server = make_world()
    client.cast("server", "no_such_handler")
    with pytest.raises(Exception, match="no handler on_no_such_handler"):
        kernel.run()


def test_raw_endpoint_still_receives_into_its_mailbox():
    kernel = Kernel()
    net = Network(kernel, Topology.ec2(2), jitter_frac=0.0)
    net.register("a", 0)
    box = net.register("b", 1)
    net.send("a", "b", "first")
    net.send("a", "b", "second")
    kernel.run()
    assert [m.payload for m in box] == ["first", "second"]
    box.clear()

    received = []
    net.attach("b", lambda message: received.append((message, kernel.now)))
    net.send("a", "b", "third")
    kernel.run()
    [(message, at)] = received
    assert (message.payload, message.delivered_at) == ("third", at)
    assert not box
