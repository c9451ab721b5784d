"""Tests for the benchmark harness's preload."""

from repro.core import CSet
from repro.deployment import Deployment
from repro.storage import FLUSH_MEMORY


def make_world():
    world = Deployment(n_sites=1, flush_latency=FLUSH_MEMORY, jitter_frac=0.0, seed=9)
    return world


def test_preload_accepts_cset_and_dict_values():
    world = make_world()
    container = world.create_container("c", preferred_site=0)
    from repro.core import ObjectKind

    as_cset = container.new_id(ObjectKind.CSET)
    as_dict = container.new_id(ObjectKind.CSET)
    seeded = CSet({"x": 2, "y": -1})
    world.preload({as_cset: seeded, as_dict: {"a": 1}})
    client = world.new_client(0)

    def scenario():
        tx = client.start_tx()
        first = yield from client.set_read(tx, as_cset)
        second = yield from client.set_read(tx, as_dict)
        yield from client.commit(tx)
        return (first.counts(), second.counts())

    first, second = world.run_process(scenario())
    assert first == {"x": 2, "y": -1}
    assert second == {"a": 1}
