"""Tests for message delivery, bandwidth modelling, and fault injection."""

import pytest

from repro.net import Network, Topology
from repro.obs import MetricsRegistry
from repro.sim import Kernel


def make_net(n_sites=2, jitter=0.0, loss=0.0, registry=None):
    kernel = Kernel()
    topo = Topology.ec2(n_sites)
    net = Network(kernel, topo, jitter_frac=jitter, loss_rate=loss, registry=registry)
    return kernel, topo, net


def test_delivery_latency_cross_site():
    kernel, topo, net = make_net()
    net.register("a", "VA")
    box = net.register("b", "CA")
    net.send("a", "b", "hello", size_bytes=100)
    kernel.run()
    message = box.popleft()
    payload, at = message.payload, message.delivered_at
    assert payload == "hello"
    expected = topo.one_way("VA", "CA") + 100 * 8 / 22e6 + Network.SOFTWARE_OVERHEAD
    assert at == pytest.approx(expected)


def test_delivery_latency_intra_site_is_fast():
    kernel, topo, net = make_net()
    net.register("a", "VA")
    box = net.register("b", "VA")
    net.send("a", "b", "x", size_bytes=100)
    kernel.run()
    assert box.popleft().delivered_at < 0.001  # sub-millisecond within a site


def test_cross_site_link_serializes_fifo():
    # Two large back-to-back messages on the 22 Mbps link: the second's
    # serialization starts only after the first finishes.
    kernel, topo, net = make_net()
    net.register("a", "VA")
    box = net.register("b", "CA")
    size = 220_000  # 80 ms of serialization at 22 Mbps
    net.send("a", "b", 1, size_bytes=size)
    net.send("a", "b", 2, size_bytes=size)
    kernel.run()
    m1, m2 = box
    assert (m1.payload, m2.payload) == (1, 2)
    t1, t2 = m1.delivered_at, m2.delivered_at
    serialize = size * 8 / 22e6
    assert t2 - t1 == pytest.approx(serialize)


def test_partition_drops_both_directions():
    kernel, topo, net = make_net()
    net.register("a", "VA")
    net.register("b", "CA")
    net.partition("VA", "CA")
    net.send("a", "b", "lost")
    net.send("b", "a", "lost too")
    kernel.run()
    assert net.stats.dropped_partition == 2
    assert net.stats.delivered == 0
    assert net.is_partitioned("CA", "VA")


def test_heal_restores_connectivity():
    kernel, topo, net = make_net()
    net.register("a", "VA")
    box = net.register("b", "CA")
    net.partition("VA", "CA")
    net.heal("VA", "CA")
    net.send("a", "b", "ok")
    kernel.run()
    assert len(box) == 1


def test_partition_during_flight_drops_message():
    kernel, topo, net = make_net()
    net.register("a", "VA")
    box = net.register("b", "CA")
    net.send("a", "b", "in flight")

    def partitioner():
        yield kernel.timeout(0.001)  # before the ~41ms one-way delay
        net.partition("VA", "CA")

    kernel.spawn(partitioner())
    kernel.run()
    assert len(box) == 0
    assert net.stats.dropped_partition == 1


def test_crashed_host_does_not_receive():
    kernel, topo, net = make_net()
    net.register("a", "VA")
    box = net.register("b", "CA")
    net.crash_host("b")
    net.send("a", "b", "to the void")
    kernel.run()
    assert len(box) == 0
    assert net.stats.dropped_crash == 1
    net.recover_host("b")
    net.send("a", "b", "back")
    kernel.run()
    assert len(box) == 1


def test_crashed_host_cannot_send():
    kernel, topo, net = make_net()
    net.register("a", "VA")
    box = net.register("b", "CA")
    net.crash_host("a")
    net.send("a", "b", "nope")
    kernel.run()
    assert len(box) == 0


def test_random_loss_rate():
    kernel, topo, net = make_net(loss=1.0)
    net.register("a", "VA")
    box = net.register("b", "CA")
    net.send("a", "b", "gone")
    kernel.run()
    assert len(box) == 0
    assert net.stats.dropped_random == 1


def test_unknown_destination_raises():
    kernel, topo, net = make_net()
    net.register("a", "VA")
    with pytest.raises(ValueError):
        net.send("a", "nobody", "x")


def test_duplicate_registration_raises():
    kernel, topo, net = make_net()
    net.register("a", "VA")
    with pytest.raises(ValueError):
        net.register("a", "CA")


def test_jitter_is_deterministic_per_seed():
    def one_run():
        kernel, topo, net = make_net(jitter=0.10)
        net.register("a", "VA")
        box = net.register("b", "CA")
        for i in range(5):
            net.send("a", "b", i)
        kernel.run()
        return [message.delivered_at for message in box]

    assert one_run() == one_run()


def test_stats_byte_accounting():
    registry = MetricsRegistry()
    kernel, topo, net = make_net(registry=registry)
    net.register("a", "VA")
    net.register("b", "CA")
    net.send("a", "b", "x", size_bytes=1000)
    kernel.run()
    va, ca = topo.site("VA").id, topo.site("CA").id
    assert registry.counter("net.bytes", site=va, dst=ca).value == 1000


def test_sent_counters_consistent_under_faults():
    """``net.sent`` (aggregate) and the per-site ``net.sent{site=*}``
    mirrors both count *attempted* sends: they are bumped together
    before any drop check, so the aggregate always equals the sum of
    the per-site counters -- even when partitions, crashes, and random
    loss drop most of the traffic."""
    registry = MetricsRegistry()
    kernel, topo, net = make_net(n_sites=3, loss=0.5, registry=registry)
    net.register("a", "VA")
    net.register("b", "CA")
    net.register("c", "IE")
    net.partition("VA", "CA")
    net.crash_host("c")

    for i in range(40):
        net.send("a", "b", i)  # partitioned: dropped at send time
        net.send("b", "a", i)  # partitioned the other way
        net.send("c", "a", i)  # crashed source
        net.send("a", "c", i)  # delivered to a crashed host: dropped late
        net.send("b", "c", i)  # lossy + crashed destination
    kernel.run()

    per_site = [
        c.value
        for c in registry.counters()
        if c.name == "net.sent" and c.labels
    ]
    aggregate = registry.counter("net.sent").value
    assert aggregate == 200
    assert sum(per_site) == aggregate
    assert net.stats.sent == aggregate
    # Drops are attributed, not silently swallowed.
    dropped = (
        net.stats.dropped_partition
        + net.stats.dropped_crash
        + net.stats.dropped_random
    )
    assert net.stats.delivered == aggregate - dropped


# ----------------------------------------------------------------------
# Route cache: one route per directed site pair, found with one lookup
# ----------------------------------------------------------------------
def test_route_resolved_without_jitter_or_loss_still_drops_when_loss_rises():
    kernel, topo, net = make_net()
    net.register("a", "VA")
    box = net.register("b", "CA")
    net.send("a", "b", "kept")
    kernel.run()
    assert len(box) == 1
    net.loss_rate = 1.0  # as a chaos loss burst sets it mid-run
    net.send("a", "b", "lost")
    kernel.run()
    assert len(box) == 1 and net.stats.dropped_random == 1


def test_link_fifo_spacing_and_byte_counts_in_registry():
    registry = MetricsRegistry()
    kernel, topo, net = make_net(registry=registry)
    net.register("a", "VA")
    box = net.register("b", "CA")
    size = 220_000  # 80 ms of serialization at 22 Mbps
    net.send("a", "b", 1, size_bytes=size)
    net.send("a", "b", 2, size_bytes=size)
    kernel.run()
    m1, m2 = box
    assert m2.delivered_at - m1.delivered_at == pytest.approx(size * 8 / 22e6)
    va, ca = topo.site("VA").id, topo.site("CA").id
    assert registry.counter("net.bytes", site=va, dst=ca).value == 2 * size
    assert registry.counter("net.sent", site=va).value == 2
    assert registry.counter("net.delivered", site=ca).value == 2
    # The deployment-wide view counts into the same registry.
    assert registry.counter("net.sent").value == net.stats.sent == 2


def test_takeover_register_routes_to_the_new_receiver_and_site():
    kernel, topo, net = make_net(n_sites=3)
    net.register("a", "VA")
    old = net.register("b", "CA")
    net.send("a", "b", "to CA")
    kernel.run()
    new = net.register("b", "IE", takeover=True)
    sent_at = kernel.now
    net.send("a", "b", "to IE", size_bytes=100)
    kernel.run()
    message = new.popleft()
    payload, took = message.payload, message.delivered_at - sent_at
    assert payload == "to IE" and [m.payload for m in old] == ["to CA"]
    expected = topo.one_way("VA", "IE") + 100 * 8 / 22e6 + Network.SOFTWARE_OVERHEAD
    assert took == pytest.approx(expected)
