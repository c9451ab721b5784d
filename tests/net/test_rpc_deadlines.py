"""Tests for RPC deadlines: every call made with a timeout expires at its
own ``t_call + timeout`` although one kernel timer per host serves them
all, and the sweep that fails expired calls survives callers that call
again from their ``except RpcTimeout`` block."""

import pytest

from repro.net import Host, Network, RpcTimeout, Topology
from repro.sim import Kernel


class Server(Host):
    def rpc_echo(self, text):
        return text

    def rpc_slow_echo(self, text, delay):
        yield self.kernel.timeout(delay)
        return text


def make_pair():
    kernel = Kernel()
    net = Network(kernel, Topology.ec2(2), jitter_frac=0.0)
    server = Server(kernel, net, 0, "server")
    client = Host(kernel, net, 1, "client")
    server.start()
    client.start()
    return kernel, net, client, server


def timed_call(kernel, client, log, tag, timeout, method="echo", **args):
    """Process body: one call; logs (tag, outcome, instant it returned)."""
    try:
        value = yield from client.call("server", method, timeout=timeout, **args)
        log.append((tag, value, kernel.now))
    except RpcTimeout as exc:
        log.append((tag, str(exc), kernel.now))


def test_timeout_raised_exactly_at_deadline_with_message():
    kernel, net, client, _server = make_pair()
    net.partition(0, 1)
    log = []

    def late_caller():
        yield kernel.timeout(0.125)
        yield from timed_call(kernel, client, log, "late", 0.75, text="x")

    kernel.spawn(late_caller())
    kernel.run()
    assert log == [("late", "rpc server.echo from client timed out after 0.75s", 0.125 + 0.75)]
    assert not client._pending and not client._deadlines


def test_each_call_expires_at_its_own_deadline():
    """Deadlines are not monotone in call order: 5 s first, then 1 s."""
    kernel, net, client, _server = make_pair()
    net.partition(0, 1)
    log = []
    kernel.spawn(timed_call(kernel, client, log, "long", 5.0, text="x"))
    kernel.spawn(timed_call(kernel, client, log, "short", 1.0, text="x"))

    def third():
        yield kernel.timeout(2.0)  # after the short one fired and re-armed
        yield from timed_call(kernel, client, log, "mid", 1.5, text="x")

    kernel.spawn(third())
    kernel.run()
    assert [(tag, at) for tag, _, at in log] == [("short", 1.0), ("mid", 3.5), ("long", 5.0)]


def test_reply_after_expiry_is_ignored_and_later_calls_unaffected():
    kernel, _net, client, _server = make_pair()
    log = []

    def caller():
        # The handler answers at ~1.08 s, long after the 0.5 s deadline.
        yield from timed_call(
            kernel, client, log, "expired", 0.5, method="slow_echo", text="late", delay=1.0
        )
        yield kernel.timeout(1.0)  # the late reply arrives while idle
        yield from timed_call(kernel, client, log, "next", 0.5, text="fresh")

    kernel.spawn(caller())
    kernel.run()
    assert log[0][0::2] == ("expired", 0.5) and "timed out after 0.5s" in log[0][1]
    assert log[1][:2] == ("next", "fresh") and 1.5 < log[1][2] < 1.6
    assert not client._pending and not client._deadlines


@pytest.mark.parametrize("bystander", [False, True])
def test_retry_from_except_block_times_out_again(bystander):
    """The re-entrancy case: the woken caller issues its next call (and
    arms the timer) around the sweep that woke it; alone, or with another
    call outstanding for the sweep to re-arm for."""
    kernel, net, client, _server = make_pair()
    net.partition(0, 1)
    expiries = []

    def stubborn():
        for _attempt in range(3):
            try:
                yield from client.call("server", "echo", text="x", timeout=2.0)
            except RpcTimeout:
                expiries.append(kernel.now)
        return "gave up"

    log = []
    if bystander:
        kernel.spawn(timed_call(kernel, client, log, "bystander", 3.0, text="x"))
    proc = kernel.spawn(stubborn())
    kernel.run(until=100.0)
    assert proc.done and proc.value == "gave up"
    assert expiries == [2.0, 4.0, 6.0]
    assert [at for _, _, at in log] == [3.0] * bystander


def test_stop_fails_outstanding_calls_immediately():
    kernel, net, client, _server = make_pair()
    net.partition(0, 1)
    log = []
    kernel.spawn(timed_call(kernel, client, log, "timed", 5.0, text="x"))

    def untimed():
        with pytest.raises(RpcTimeout, match="host client stopped"):
            yield from client.call("server", "echo", text="x")
        log.append(("untimed", "stopped", kernel.now))

    kernel.spawn(untimed())
    kernel.call_at(0.25, client.stop)
    kernel.run()
    assert sorted(log) == [("timed", "host client stopped", 0.25), ("untimed", "stopped", 0.25)]
    assert not client._pending and not client._deadlines
    # The timer armed for the dead call comes due harmlessly, and a
    # restarted host's calls get deadlines of their own.
    assert kernel.now == 5.0
    client.start()
    net.heal(0, 1)
    kernel.spawn(timed_call(kernel, client, log, "after", 0.05, text="x"))
    kernel.run()
    assert log[-1] == ("after", "rpc server.echo from client timed out after 0.05s", 5.05)
