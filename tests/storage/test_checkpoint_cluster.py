"""Tests for checkpointing and site storage recovery."""

import pytest

from repro.deployment import Deployment
from repro.sim import Kernel
from repro.storage import FLUSH_EC2, FLUSH_MEMORY, SiteStorage


def make_storage(flush_latency=FLUSH_MEMORY):
    kernel = Kernel()
    return kernel, SiteStorage(kernel, site=0, flush_latency=flush_latency)


def one_site():
    world = Deployment(n_sites=1, flush_latency=FLUSH_MEMORY, jitter_frac=0.0)
    world.create_container("c0", preferred_site=0)
    return world


def commit_write(world, client, data):
    def scenario():
        tx = client.start_tx()
        yield from client.write(tx, client.new_id("c0"), data)
        return (yield from client.commit(tx))

    return world.run_process(scenario())


def test_periodic_checkpoints_capture_state_and_log_position():
    world = one_site()
    storage = world.storages[0]
    world.server(0).enable_checkpointing(interval=1.0)
    client = world.new_client(0)
    for data in (b"a", b"b"):
        assert commit_write(world, client, data) == "COMMITTED"
    world.run(until=1.5)
    first = storage.checkpoint
    assert first.taken_at == pytest.approx(1.0)
    assert first.state["curr_seqno"] == 2
    assert storage.log.entries == []  # all of it was covered
    assert commit_write(world, client, b"c") == "COMMITTED"
    assert storage.log.entries
    assert all(entry.appended_at > first.taken_at for entry in storage.log.entries)
    world.run(until=2.5)
    second = storage.checkpoint
    assert second.taken_at == pytest.approx(2.0)
    assert second.state["curr_seqno"] == 3
    assert storage.log.entries == []


def test_checkpoint_state_is_deep_copied():
    _kernel, storage = make_storage()
    state = {"items": []}
    checkpoint = storage.take_checkpoint(state)
    state["items"].append("mutated later")
    assert storage.checkpoint is checkpoint
    assert checkpoint.state == {"items": []}
    restored, _log = storage.recover()
    restored["items"].append("mutated by a restore")
    assert checkpoint.state == {"items": []}


def test_recover_returns_checkpoint_plus_log_suffix():
    kernel, storage = make_storage()

    def workload():
        yield storage.log.append("before")
        storage.take_checkpoint({"n": 1})
        yield kernel.timeout(6.0)
        yield storage.log.append("after")

    kernel.run_process(workload())
    assert storage.recover() == ({"n": 1}, ["after"])


def test_recover_with_no_checkpoint_replays_whole_log():
    kernel, storage = make_storage()

    def workload():
        yield storage.log.append("a")
        yield storage.log.append("b")

    kernel.run_process(workload(), until=1.0)
    assert storage.recover() == (None, ["a", "b"])


def test_stop_halts_checkpointing():
    world = one_site()
    storage = world.storages[0]
    server = world.server(0)
    server.enable_checkpointing(interval=1.0)
    world.run(until=2.5)
    last = storage.checkpoint
    assert last.taken_at == pytest.approx(2.0)
    server.stop()
    world.run(until=10.0)
    assert storage.checkpoint is last


def test_invalid_interval():
    world = one_site()
    with pytest.raises(ValueError):
        world.server(0).enable_checkpointing(interval=0.0)
    assert world.storages[0].checkpoint_interval is None


def test_site_storage_survives_server_replacement():
    # A takeover fences the log: the write in flight is discarded, the
    # current checkpoint and the landed log survive it.
    kernel, storage = make_storage(FLUSH_EC2)

    def workload():
        yield storage.log.append({"tid": "t1"})
        storage.take_checkpoint({"committed": ["t1"]})
        yield storage.log.append({"tid": "t2"})
        storage.inject_flush_stall(1.0)
        storage.log.append({"tid": "t3"})

    kernel.run_process(workload())
    assert storage.fence() == [{"tid": "t3"}]
    kernel.run(until=2.0)
    # "Replacement server" reads durable state from the same storage.
    assert storage.recover() == ({"committed": ["t1"]}, [{"tid": "t2"}])


def test_site_storage_reattach_replaces_checkpointer(monkeypatch):
    # The period lives on the storage: the replacement's start() re-arms
    # one chain at the same cadence, and the crashed server's is dead.
    taken = []
    original = SiteStorage.take_checkpoint

    def counted(self, state):
        taken.append(round(self.kernel.now, 6))
        return original(self, state)

    monkeypatch.setattr(SiteStorage, "take_checkpoint", counted)
    world = one_site()
    world.server(0).enable_checkpointing(interval=1.0)
    world.run(until=1.5)
    world.crash_server(0)
    world.replace_server(0)
    world.run(until=3.6)
    assert taken == [1.0, 2.5, 3.5]
    assert world.storages[0].checkpoint_interval == 1.0


def test_a_fence_discards_a_pending_checkpoint():
    kernel, storage = make_storage(FLUSH_EC2)
    first = storage.take_checkpoint({"n": 0})  # nothing in flight: current
    storage.inject_flush_stall(1.0)
    doomed = storage.log.append("doomed")
    storage.take_checkpoint({"n": 1})
    kernel.run(until=0.5)
    assert storage.checkpoint is first  # waits for "doomed" to land
    storage.fence()
    kernel.run(until=2.0)
    assert not doomed.triggered
    assert storage.checkpoint is first
    assert storage.recover() == ({"n": 0}, [])


def test_a_newer_checkpoint_supersedes_a_waiting_one():
    kernel, storage = make_storage(FLUSH_EC2)
    log = storage.log

    def workload():
        yield log.append("landed")
        storage.inject_flush_stall(0.1)
        covered = log.append("covered by both")
        storage.take_checkpoint({"n": 1})
        newer = storage.take_checkpoint({"n": 2})
        log.append("after both")  # lands in the same flush
        yield covered
        return newer

    newer = kernel.run_process(workload())
    kernel.run(until=1.0)
    assert storage.checkpoint is newer
    assert log.payloads() == ["after both"]


def test_an_installed_checkpoint_truncates_the_log_below_it():
    kernel, storage = make_storage()
    log = storage.log
    # Appended at the instant the stall ends, this entry lands at memory
    # speed ahead of the one queued during the stall.
    kernel.call_at(0.1, log.append, "later, landed first")

    def workload():
        yield log.append("landed")
        storage.inject_flush_stall(0.1)
        in_flight = log.append("in flight")
        checkpoint = storage.take_checkpoint({"n": 2})
        assert storage.checkpoint is None
        yield in_flight
        return checkpoint

    checkpoint = kernel.run_process(workload())
    kernel.run(until=1.0)
    assert storage.checkpoint is checkpoint
    assert log.payloads() == ["later, landed first"]
    assert storage.recover() == ({"n": 2}, ["later, landed first"])
