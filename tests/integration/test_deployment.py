"""Tests for the Deployment assembler itself."""

import pytest

from repro.deployment import Deployment
from repro.errors import ConfigurationError
from repro.net import Topology
from repro.storage import FLUSH_MEMORY


def test_default_deployment_is_four_ec2_sites():
    world = Deployment()
    assert world.n_sites == 4
    assert [s.name for s in world.topology.sites] == ["VA", "CA", "IE", "SG"]
    assert len(world.servers) == 4


def test_custom_topology():
    world = Deployment(topology=Topology.uniform(3, rtt_ms=50.0))
    assert world.n_sites == 3


def test_create_container_defaults_replicate_everywhere():
    world = Deployment(n_sites=3)
    container = world.create_container(preferred_site=1)
    assert container.preferred_site == 1
    assert container.replica_sites == {0, 1, 2}
    assert world.config.container(container.id) is container


#: (preferred site, replica sites) placements a 3-site deployment rejects:
#: a preferred site outside the replica set, or any site that does not exist.
INVALID_PLACEMENTS = [
    (1, {0}),
    (5, {5}),
    (-1, {-1}),
    (0, {0, 9}),
    (0, {0, 3}),
]


def test_create_container_validates_replicas():
    world = Deployment(n_sites=3)
    for preferred, replicas in INVALID_PLACEMENTS:
        with pytest.raises(ConfigurationError):
            world.create_container(preferred_site=preferred, replica_sites=replicas)
    assert world.config.containers() == []
    # With shards, placement is by logical site: 2 sites x 2 shards = 4.
    sharded = Deployment(n_sites=2, shards=2)
    assert sharded.create_container(preferred_site=3, replica_sites={1, 3}).preferred_site == 3
    with pytest.raises(ConfigurationError):
        sharded.create_container(preferred_site=4, replica_sites={4})


def test_auto_generated_container_ids_unique():
    world = Deployment(n_sites=1)
    a = world.create_container()
    b = world.create_container()
    assert a.id != b.id


def test_clients_bind_to_their_site_server():
    world = Deployment(n_sites=2, flush_latency=FLUSH_MEMORY)
    client = world.new_client(1)
    assert client.site.id == 1
    assert client.server_address == world.addresses[1]


def test_two_deployments_coexist():
    # Address namespaces must not collide between deployments (each has
    # its own kernel/network, but unique ids guard against cross-use).
    w1 = Deployment(n_sites=1, flush_latency=FLUSH_MEMORY)
    w2 = Deployment(n_sites=1, flush_latency=FLUSH_MEMORY)
    assert w1.addresses[0] != w2.addresses[0]


@pytest.mark.parametrize(
    "kwargs",
    [dict(tracing="bogus"), dict(tracing=True, trace_capacity=0), dict(replication=3)],
    ids=["tracing", "trace_capacity", "replication"],
)
def test_parallel_handle_rejects_what_the_serial_constructor_rejects(kwargs):
    # ``executor="parallel"`` selects nothing: a bad argument fails with
    # the serial constructor's error.
    with pytest.raises(ValueError) as serial:
        Deployment(n_sites=2, **kwargs)
    with pytest.raises(ValueError) as parallel:
        Deployment(n_sites=2, executor="parallel", **kwargs)
    assert str(parallel.value) == str(serial.value)


def _writes_scenario(world, n_keys, until):
    """A small closed-loop write workload, importable by name."""
    from repro.bench import populate, run_closed_loop, write_tx_factory

    keys = populate(world, n_keys=n_keys)
    result = run_closed_loop(
        world, write_tx_factory(keys, 2), clients_per_site=2, warmup=0.05, measure=until,
    )
    world.settle(0.5)
    return {"ops": result.ops, "errors": result.errors, "now": world.kernel.now}


@pytest.mark.parametrize(
    "spelling", [{}, dict(executor="parallel", workers=2)], ids=["serial", "parallel"]
)
def test_run_scenario_runs_the_named_scenario_in_process(spelling):
    # The ledger's parallel pass calls run_scenario by "module:function";
    # it must return exactly what calling the scenario directly returns.
    kw = dict(n_sites=3, seed=5, flush_latency=FLUSH_MEMORY)
    params = dict(n_keys=30, until=0.2)
    expected = _writes_scenario(Deployment(**kw), **params)
    assert expected["ops"] > 0
    result = Deployment(**kw, **spelling).run_scenario(
        __name__ + ":_writes_scenario", params=params
    )
    assert result.scenario_results == [expected]


def test_settle_advances_time():
    world = Deployment(n_sites=1, flush_latency=FLUSH_MEMORY)
    before = world.kernel.now
    world.settle(1.5)
    assert world.kernel.now == pytest.approx(before + 1.5)
