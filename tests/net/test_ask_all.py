"""Tests for ``Host.ask_all``: an RPC fan-out without a process.

The round must keep the order a process per request joined by ``AllOf``
had (DESIGN.md §10): the requests go out together one ready turn after
the ask, each answer only records its result, and the asker resumes one
ready turn after the last answer.  The equivalence test keeps that
reference here and compares delivery order, delivery times (so jitter
draws) and the asker's resume position against it.
"""

import pytest

from repro.net import Host, Network, RpcError, RpcRemoteError, RpcTimeout, Topology
from repro.sim import AllOf, Kernel, RandomStreams


class Peer(Host):
    def __init__(self, *args, trace=None, **kwargs):
        super().__init__(*args, **kwargs)
        self.trace = [] if trace is None else trace

    def rpc_echo(self, text):
        self.trace.append(("serve", self.address, text, self.kernel.now))
        return text

    def rpc_boom(self):
        raise ValueError("handler failed")

    def on_note(self, src, text):
        self.trace.append(("note", self.address, text, self.kernel.now))


def make_world(sites=(0, 2, 0), jitter_frac=0.0, seed=0, dead=()):
    kernel = Kernel()
    net = Network(kernel, Topology.ec2(3), streams=RandomStreams(seed), jitter_frac=jitter_frac)
    asker = Host(kernel, net, 0, "asker")
    asker.start()
    peers = []
    for index, site in enumerate(sites):
        peer = Peer(kernel, net, site, "p%d" % index)
        if index not in dead:
            peer.start()
        peers.append(peer)
    return kernel, net, asker, peers


def test_results_follow_request_order_not_reply_order():
    kernel, _net, asker, peers = make_world(sites=(2, 0, 1))
    round_ = asker.ask_all(
        [(peer.address, "echo", {"text": peer.address}) for peer in peers], timeout=5.0
    )
    kernel.run()
    assert round_.value == ["p0", "p1", "p2"]
    served = [peer.trace[0] for peer in peers]
    # The local peer answered first and the far one last.
    assert served[1][3] < served[2][3] < served[0][3]


def test_failures_stay_in_their_slots():
    kernel, _net, asker, peers = make_world(sites=(0, 0, 0), dead=(0,))
    round_ = asker.ask_all(
        [("p0", "echo", {"text": "lost"}), ("p1", "boom", {}), ("p2", "echo", {"text": "ok"})],
        timeout=1.0,
    )
    kernel.run()
    lost, boom, ok = round_.value
    assert isinstance(lost, RpcTimeout)
    assert isinstance(boom, RpcRemoteError) and "handler failed" in str(boom)
    assert ok == "ok"


def test_empty_round_completes_at_once():
    kernel, _net, asker, _peers = make_world()
    round_ = asker.ask_all([])
    assert round_.triggered and round_.value == []
    assert kernel.run() == 0.0


def test_crash_of_the_asker_never_resumes_it():
    kernel, _net, asker, peers = make_world(sites=(2, 2, 1))
    resumed = []

    def ask():
        results = yield asker.ask_all(
            [(peer.address, "echo", {"text": "x"}) for peer in peers], timeout=5.0
        )
        resumed.append(results)

    asker.spawn_child(ask())
    kernel.call_at(0.01, asker.crash)
    kernel.run()
    assert resumed == [] and not asker._pending


def test_round_costs_two_entries_and_no_process(processes_made):
    kernel, _net, asker, peers = make_world(sites=(0, 1, 2))
    for _ in range(3):
        del processes_made[:]
        before = kernel.events_executed
        round_ = asker.ask_all(
            [(peer.address, "echo", {"text": "x"}) for peer in peers], timeout=5.0
        )
        kernel.run(stop_when=lambda: round_.triggered)
        # Three request and three reply deliveries, plus the send turn
        # and the completion turn.  A process per request: 6 + 6.
        assert kernel.events_executed - before == 6 + 2
        assert processes_made == []
        assert round_.value == ["x", "x", "x"]


# ----------------------------------------------------------------------
# Equivalence with a process per request joined by AllOf
# ----------------------------------------------------------------------
def process_per_request(host, requests, timeout=None):
    """The fan-out ``ask_all`` replaces."""

    def one(dst, method, args):
        try:
            return (yield from host.call(dst, method, timeout=timeout, **args))
        except RpcError as exc:
            return exc

    return AllOf([host.kernel.spawn(one(dst, method, args)) for dst, method, args in requests])


def run_scenario(fanout, dead):
    """Four requests, three of them on the asker's link to site 1, and a
    cast on that same link at the ask's instant; a marker before and
    after each reply delivery and deadline locates the asker's resume."""
    kernel, net, asker, peers = make_world(
        sites=(1, 1, 1, 0), jitter_frac=0.05, seed=7, dead=dead
    )
    trace = []
    for peer in peers:
        peer.trace = trace

    def marked(inner, kind):
        def hook(*args):
            kernel.call_soon(trace.append, (kind, "before", kernel.now))
            inner(*args)
            kernel.call_soon(trace.append, (kind, "after", kernel.now))
        return hook

    net.attach("asker", marked(asker._on_message, "reply"))
    asker._on_deadline = marked(asker._on_deadline, "deadline")

    def ask():
        results = yield fanout(
            asker, [(peer.address, "echo", {"text": peer.address}) for peer in peers],
            timeout=2.0,
        )
        trace.append(("resume", kernel.now, [
            (type(r).__name__, str(r)) if isinstance(r, Exception) else r for r in results
        ]))

    kernel.spawn(ask())
    kernel.call_soon(lambda: asker.cast("p0", "note", text="same link, same instant"))
    kernel.run()
    return trace


@pytest.mark.parametrize("dead", [(), (1,)], ids=["last-answer-a-reply", "last-answer-a-timeout"])
def test_matches_a_process_per_request(dead):
    reference = run_scenario(process_per_request, dead)
    ours = run_scenario(lambda host, requests, timeout: host.ask_all(requests, timeout), dead)
    assert ours == reference
    # The cast went out on the link before any request did.
    assert [e[0] for e in reference if e[1] == "p0"] == ["note", "serve"]
    resume = next(i for i, entry in enumerate(reference) if entry[0] == "resume")
    last_marker = reference[resume - 1]
    assert last_marker[1] == ("after" if dead else "before")
