"""Tests for the WAL with group commit."""

import pytest

from repro.sim import Kernel
from repro.storage import FLUSH_MEMORY, DiskLog


def test_append_becomes_durable_after_flush_latency():
    kernel = Kernel()
    log = DiskLog(kernel, flush_latency=0.005)

    def writer():
        record = yield log.append("payload")
        return (record.payload, kernel.now)

    payload, at = kernel.run_process(writer(), until=1.0)
    assert payload == "payload"
    assert at == pytest.approx(0.005)
    assert log.payloads() == ["payload"]


def test_group_commit_batches_concurrent_appends():
    # Records arriving during an in-progress flush share the next flush.
    kernel = Kernel()
    log = DiskLog(kernel, flush_latency=0.010)
    done_times = []

    def writer(delay, payload):
        yield kernel.timeout(delay)
        yield log.append(payload)
        done_times.append((payload, kernel.now))

    kernel.spawn(writer(0.0, "first"))
    kernel.spawn(writer(0.002, "second"))
    kernel.spawn(writer(0.004, "third"))
    kernel.run(until=1.0)
    times = dict(done_times)
    assert times["first"] == pytest.approx(0.010)
    # second and third were batched into one flush ending at 0.020.
    assert times["second"] == pytest.approx(0.020)
    assert times["third"] == pytest.approx(0.020)
    assert log.stats.flushes == 2
    assert log.stats.max_batch == 2


def test_memory_mode_is_immediate():
    kernel = Kernel()
    log = DiskLog(kernel, flush_latency=FLUSH_MEMORY)

    def writer():
        yield log.append("instant")
        return kernel.now

    assert kernel.run_process(writer(), until=1.0) == 0.0
    assert log.stats.records == 1


def test_payloads_in_append_order():
    kernel = Kernel()
    log = DiskLog(kernel, flush_latency=0.001)

    def writer():
        for i in range(5):
            yield log.append(i)

    kernel.run_process(writer(), until=1.0)
    assert log.payloads() == [0, 1, 2, 3, 4]


def test_truncate_gc():
    kernel = Kernel()
    log = DiskLog(kernel, flush_latency=FLUSH_MEMORY)

    def writer():
        for i in range(5):
            yield log.append(i)

    kernel.run_process(writer(), until=1.0)
    assert log.truncate(2) == 2
    assert log.payloads() == [2, 3, 4]
    assert log.truncate(99) == 3
    assert log.payloads() == []


def test_negative_flush_latency_rejected():
    with pytest.raises(ValueError):
        DiskLog(Kernel(), flush_latency=-1.0)


def test_throughput_exceeds_one_over_latency_with_group_commit():
    # 100 concurrent writers on a 10ms disk finish in ~30ms total
    # (3 flush generations), not 1 second -- the point of group commit.
    kernel = Kernel()
    log = DiskLog(kernel, flush_latency=0.010)
    finished = []

    def writer(i):
        yield log.append(i)
        finished.append(kernel.now)

    for i in range(100):
        kernel.spawn(writer(i))
    kernel.run(until=10.0)
    assert len(finished) == 100
    assert max(finished) <= 0.030
    assert log.stats.flushes <= 3


# ----------------------------------------------------------------------
# append_many: N appends with one durability event
# ----------------------------------------------------------------------
RUNS = [["a1", "a2", "a3"], ["b1"], ["c1", "c2", "c3", "c4", "c5"]]


def drive_runs(many, flush_latency=0.004, flush_window=0.0, stall=None, fence_at=None):
    """Three runs of payloads appended 1 ms apart (so they straddle
    flushes), as ``append_many`` calls or as one ``append`` per payload;
    returns the log and when each run's last record was seen durable."""
    kernel = Kernel()
    log = DiskLog(kernel, flush_latency=flush_latency, flush_window=flush_window)
    seen = []

    def writer():
        for run in RUNS:
            if many:
                done = log.append_many(run)
            else:
                done = [log.append(payload) for payload in run][-1]
            kernel.spawn(waiter(run, done))
            yield kernel.timeout(0.001)

    def waiter(run, done):
        record = yield done
        seen.append((run[-1], record.payload, kernel.now))

    kernel.spawn(writer())
    if stall is not None:
        kernel.call_at(stall[0], log.inject_stall, stall[1])
    if fence_at is not None:
        kernel.call_at(fence_at, log.fence)
    kernel.run(until=1.0)
    return kernel, log, seen


def log_state(kernel, log, seen):
    return {
        "payloads": log.payloads(),
        "durable_at": [entry.durable_at for entry in log.entries],
        "appended_at": [entry.appended_at for entry in log.entries],
        "records": log.stats.records,
        "flushes": log.stats.flushes,
        "max_batch": log.stats.max_batch,
        "fenced": log.stats.fenced,
        "seen": seen,
        "events": kernel.events_executed,
    }


@pytest.mark.parametrize(
    "kwargs",
    [
        {},
        {"flush_window": 0.002},
        {"flush_latency": FLUSH_MEMORY},
        {"stall": (0.0005, 0.02)},
        {"flush_latency": FLUSH_MEMORY, "stall": (0.0005, 0.02)},
        {"fence_at": 0.0015},
    ],
    ids=["disk", "window", "memory", "stalled", "memory-stalled", "fenced"],
)
def test_append_many_equals_n_appends(kwargs):
    many = log_state(*drive_runs(True, **kwargs))
    single = log_state(*drive_runs(False, **kwargs))
    assert many == single
    flat = [payload for run in RUNS for payload in run]
    if "fence_at" not in kwargs:
        assert many["payloads"] == flat
        assert [last for last, _payload, _at in many["seen"]] == ["a3", "b1", "c5"]


def test_append_many_event_fires_with_last_record_after_earlier_ones():
    kernel, log, seen = drive_runs(True)
    by_payload = {entry.payload: entry.durable_at for entry in log.entries}
    for last, payload, at in seen:
        assert payload == last and at == by_payload[last]
    for run in RUNS:
        assert all(by_payload[p] <= by_payload[run[-1]] for p in run)


def test_append_many_zero_latency_is_immediate():
    kernel = Kernel()
    log = DiskLog(kernel, flush_latency=FLUSH_MEMORY)
    done = log.append_many(["x", "y", "z"])
    assert done.triggered and done.value.payload == "z"
    assert log.payloads() == ["x", "y", "z"] and log.stats.records == 3
    assert [entry.durable_at for entry in log.entries] == [0.0, 0.0, 0.0]
    assert log.stats.flushes == 0


def test_fence_mid_flight_drops_a_whole_run():
    kernel = Kernel()
    log = DiskLog(kernel, flush_latency=0.004)
    first = log.append_many(["old1", "old2", "old3"])  # taken by the flusher
    kernel.run(until=0.001)
    second = log.append_many(["old4", "old5"])  # still queued
    assert log.fence() == ["old4", "old5", "old1", "old2", "old3"]
    after = log.append_many(["new1", "new2"])
    kernel.run(until=1.0)
    assert log.payloads() == ["new1", "new2"]
    assert not first.triggered and not second.triggered and after.triggered
    assert log.stats.fenced == 5 and log.stats.records == 2


def test_injected_stall_holds_a_run():
    kernel = Kernel()
    log = DiskLog(kernel, flush_latency=0.001)
    log.inject_stall(0.05)
    done = log.append_many(["s1", "s2"])
    kernel.run(until=0.04)
    assert not done.triggered and log.payloads() == []
    kernel.run(until=1.0)
    assert done.triggered and log.payloads() == ["s1", "s2"]
    assert [entry.durable_at for entry in log.entries] == [pytest.approx(0.051)] * 2


def test_append_many_rejects_an_empty_run():
    log = DiskLog(Kernel(), flush_latency=0.001)
    with pytest.raises(ValueError):
        log.append_many([])
