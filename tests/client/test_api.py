"""Tests for the client library (Fig 14 API semantics)."""

import pytest

from repro.core import CSet, ObjectKind
from repro.deployment import Deployment
from repro.errors import TypeMismatchError
from repro.net import RpcRemoteError
from repro.storage import FLUSH_MEMORY


@pytest.fixture
def world():
    d = Deployment(n_sites=2, flush_latency=FLUSH_MEMORY, jitter_frac=0.0)
    d.create_container("c", preferred_site=0)
    return d


def test_new_id_kinds_and_uniqueness(world):
    client = world.new_client(0)
    regular = client.new_id("c")
    cset = client.new_id("c", ObjectKind.CSET)
    assert regular.kind is ObjectKind.REGULAR
    assert cset.kind is ObjectKind.CSET
    assert regular != client.new_id("c")


def test_tx_handle_status_transitions(world):
    client = world.new_client(0)
    oid = client.new_id("c")

    def scenario():
        tx = client.start_tx()
        assert tx.status is None
        assert not tx.committed
        yield from client.write(tx, oid, b"v")
        yield from client.commit(tx)
        return tx

    tx = world.run_process(scenario())
    assert tx.status == "COMMITTED"
    assert tx.committed


def test_abort_sets_status(world):
    client = world.new_client(0)
    oid = client.new_id("c")

    def scenario():
        tx = client.start_tx()
        yield from client.write(tx, oid, b"v")
        yield from client.abort(tx)
        return tx

    tx = world.run_process(scenario())
    assert tx.status == "ABORTED"
    assert not tx.committed


def test_tids_unique_across_clients(world):
    a = world.new_client(0)
    b = world.new_client(1)
    tids = {a.start_tx().tid, a.start_tx().tid, b.start_tx().tid}
    assert len(tids) == 3


def test_set_read_returns_cset_instance(world):
    client = world.new_client(0)
    cset_oid = client.new_id("c", ObjectKind.CSET)

    def scenario():
        tx = client.start_tx()
        yield from client.set_add(tx, cset_oid, "x")
        cset = yield from client.set_read(tx, cset_oid)
        yield from client.commit(tx)
        return cset

    cset = world.run_process(scenario())
    assert isinstance(cset, CSet)
    assert cset.counts() == {"x": 1}


def test_type_mismatch_surfaces_as_rpc_error(world):
    client = world.new_client(0)
    regular = client.new_id("c")
    cset_oid = client.new_id("c", ObjectKind.CSET)

    def scenario():
        tx = client.start_tx()
        with pytest.raises(RpcRemoteError, match="TypeMismatchError"):
            yield from client.set_add(tx, regular, "x")
        tx2 = client.start_tx()
        with pytest.raises(RpcRemoteError, match="TypeMismatchError"):
            yield from client.write(tx2, cset_oid, b"data")
        return True

    assert world.run_process(scenario()) is True


def test_multiread_and_multiwrite(world):
    client = world.new_client(0)
    oids = [client.new_id("c") for _ in range(3)]

    def scenario():
        tx = client.start_tx()
        yield from client.multiwrite(tx, [(oid, b"v%d" % i) for i, oid in enumerate(oids)])
        status = yield from client.commit(tx)
        assert status == "COMMITTED"
        tx2 = client.start_tx()
        values = yield from client.multiread(tx2, oids)
        yield from client.commit(tx2)
        return values

    assert world.run_process(scenario()) == [b"v0", b"v1", b"v2"]


def test_multiread_with_last_commits(world):
    client = world.new_client(0)
    oids = [client.new_id("c") for _ in range(2)]

    def scenario():
        tx = client.start_tx()
        values = yield from client.multiread(tx, oids, last=True)
        return (values, tx.status)

    values, status = world.run_process(scenario())
    assert values == [None, None]
    assert status == "COMMITTED"


def test_read_cset_objects_orders_and_limits(world):
    client = world.new_client(0)
    timeline = client.new_id("c", ObjectKind.CSET)

    def scenario():
        tx = client.start_tx()
        post_oids = []
        for i in range(5):
            oid = client.new_id("c")
            yield from client.write(tx, oid, "post %d" % i)
            yield from client.set_add(tx, timeline, (i, oid))
            post_oids.append(oid)
        yield from client.commit(tx)
        tx2 = client.start_tx()
        entries = yield from client.read_cset_objects(tx2, timeline, limit=3)
        yield from client.commit(tx2)
        return entries

    entries = world.run_process(scenario())
    assert len(entries) == 3
    assert [value for _elem, value in entries] == ["post 4", "post 3", "post 2"]


def test_ds_and_visible_callbacks_fire_once(world):
    client = world.new_client(0)
    oid = client.new_id("c")

    def scenario():
        tx = client.start_tx()
        yield from client.write(tx, oid, b"v")
        yield from client.commit(tx)
        ds_at = yield tx.ds_event
        visible_at = yield tx.visible_event
        return (ds_at, visible_at)

    ds_at, visible_at = world.run_process(scenario(), within=120.0)
    assert ds_at <= visible_at


def test_aborted_tx_gets_no_callbacks(world):
    client_a = world.new_client(0)
    client_b = world.new_client(0)
    oid = client_a.new_id("c")

    def scenario():
        tx_a = client_a.start_tx()
        tx_b = client_b.start_tx()
        yield from client_a.write(tx_a, oid, b"a")
        yield from client_b.write(tx_b, oid, b"b")
        yield from client_a.commit(tx_a)
        status = yield from client_b.commit(tx_b)
        return (status, tx_b.ds_event.triggered)

    status, triggered = world.run_process(scenario())
    assert status == "ABORTED"
    assert not triggered


def test_client_forgets_handles_once_no_milestone_can_arrive(world):
    """A handle stays registered only while a durability cast may still
    name it: a read-only commit is forgotten at commit, an update once
    both milestones fired -- and they still fire for the handle the
    application holds."""
    client = world.new_client(0)
    cset_oid = client.new_id("c", ObjectKind.CSET)
    oids = [client.new_id("c") for _ in range(4)]
    updates = []

    def scenario():
        for oid in oids:  # update transactions, every commit style
            tx = client.start_tx()
            yield from client.write(tx, oid, b"v", last=oid is oids[0])
            if oid is oids[1]:
                yield from client.set_add(tx, cset_oid, "x")
            if tx.status is None:
                yield from client.commit(tx)
            updates.append(tx)
        # The updates are committed but not yet DS-durable / visible.
        assert set(client._handles) == {tx.tid for tx in updates}
        for index in range(6):  # read-only transactions
            tx = client.start_tx()
            if index % 2:
                yield from client.read(tx, oids[0], last=True)
            else:
                yield from client.multiread(tx, oids[:2])
                yield from client.commit(tx)
            assert tx.committed and tx.tid not in client._handles
        held = updates[-1]
        ds_at = yield held.ds_event
        visible_at = yield held.visible_event
        return (ds_at, visible_at)

    ds_at, visible_at = world.run_process(scenario(), within=120.0)
    assert ds_at <= visible_at
    world.settle(5.0)
    assert all(tx.ds_event.triggered and tx.visible_event.triggered for tx in updates)
    assert len(client._handles) == 0


def test_milestone_event_requested_before_its_cast(world):
    """An event asked for while the milestone is pending is built
    untriggered and fires with the milestone's time when the cast lands."""
    client = world.new_client(0)
    oid = client.new_id("c")

    def scenario():
        tx = client.start_tx()
        yield from client.write(tx, oid, b"v")
        yield from client.commit(tx)
        assert tx.ds_at is None and tx._ds_event is None  # nothing built yet
        event = tx.ds_event
        assert not event.triggered and tx.ds_event is event
        ds_at = yield event
        return tx, ds_at

    tx, ds_at = world.run_process(scenario(), within=120.0)
    assert ds_at == tx.ds_at == tx.ds_event.value
    assert tx._visible_event is None or tx.visible_event.value == tx.visible_at


def test_milestone_event_requested_after_its_cast(world):
    """An event asked for once the milestone passed is built already
    triggered with the recorded time; waiting on it returns that time."""
    client = world.new_client(0)
    oid = client.new_id("c")

    def commit():
        tx = client.start_tx()
        yield from client.write(tx, oid, b"v")
        yield from client.commit(tx)
        return tx

    tx = world.run_process(commit(), within=120.0)
    world.settle(2.0)
    assert tx._ds_event is None and tx._visible_event is None
    assert tx.ds_at is not None and tx.ds_at <= tx.visible_at
    assert tx.tid not in client._handles  # both milestones arrived
    assert tx.visible_event.triggered and tx.visible_event.value == tx.visible_at

    def wait():
        return (yield tx.ds_event)

    assert world.run_process(wait(), within=1.0) == tx.ds_at
