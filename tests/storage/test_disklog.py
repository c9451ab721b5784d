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
# Grouped entries: many records appended as one entry count as records
# ----------------------------------------------------------------------
RUNS = [["a1", "a2", "a3"], ["b1"], ["c1", "c2", "c3", "c4", "c5"]]


def drive_runs(many, flush_latency=0.004, flush_window=0.0, stall=None, fence_at=None):
    """Three runs of payloads appended 1 ms apart (so they straddle
    flushes), each as one grouped entry or as one ``append`` per payload;
    returns the log and when each run's last record was seen durable."""
    kernel = Kernel()
    log = DiskLog(kernel, flush_latency=flush_latency, flush_window=flush_window)
    seen = []

    def writer():
        for run in RUNS:
            if many:
                done = log.append(run, len(run))
            else:
                done = [log.append(payload) for payload in run][-1]
            kernel.spawn(waiter(run, done))
            yield kernel.timeout(0.001)

    def waiter(run, done):
        yield done
        seen.append((run[-1], kernel.now))

    kernel.spawn(writer())
    if stall is not None:
        kernel.call_at(stall[0], log.inject_stall, stall[1])
    if fence_at is not None:
        kernel.call_at(fence_at, log.fence)
    kernel.run(until=1.0)
    return kernel, log, seen


def flat_records(log):
    """``(payload, appended_at, durable_at)`` per record in log order: a
    grouped entry's records share its times."""
    out = []
    for entry in log.entries:
        payloads = entry.payload if isinstance(entry.payload, list) else [entry.payload]
        out += [(payload, entry.appended_at, entry.durable_at) for payload in payloads]
    return out


def log_state(kernel, log, seen):
    return {
        "records_in_order": flat_records(log),
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
    """A run appended as one grouped entry makes every flush, count,
    durability time and kernel event of the same run appended record by
    record."""
    many = log_state(*drive_runs(True, **kwargs))
    single = log_state(*drive_runs(False, **kwargs))
    assert many == single
    flat = [payload for run in RUNS for payload in run]
    if "fence_at" not in kwargs:
        assert [payload for payload, _app, _dur in many["records_in_order"]] == flat
        assert [last for last, _at in many["seen"]] == ["a3", "b1", "c5"]


def test_append_many_event_fires_with_last_record_after_earlier_ones():
    """A grouped entry's records become durable together, when its one
    event fires."""
    kernel, log, seen = drive_runs(True)
    assert [len(payload) for payload in log.payloads()] == [len(run) for run in RUNS]
    durable = {payload: at for payload, _app, at in flat_records(log)}
    for last, at in seen:
        assert at == durable[last]
    for run in RUNS:
        assert {durable[p] for p in run} == {durable[run[-1]]}


def test_append_many_zero_latency_is_immediate():
    kernel = Kernel()
    log = DiskLog(kernel, flush_latency=FLUSH_MEMORY)
    done = log.append(["x", "y", "z"], 3)
    assert done.triggered and done.value.payload == ["x", "y", "z"]
    assert log.payloads() == [["x", "y", "z"]] and log.stats.records == 3
    assert [entry.durable_at for entry in log.entries] == [0.0]
    assert log.stats.flushes == 0


def test_fence_mid_flight_drops_a_whole_run():
    kernel = Kernel()
    log = DiskLog(kernel, flush_latency=0.004)
    first = log.append(["old1", "old2", "old3"], 3)  # taken by the flusher
    kernel.run(until=0.001)
    second = log.append(["old4", "old5"], 2)  # still queued
    assert log.fence() == [["old4", "old5"], ["old1", "old2", "old3"]]
    after = log.append(["new1", "new2"], 2)
    kernel.run(until=1.0)
    assert log.payloads() == [["new1", "new2"]]
    assert not first.triggered and not second.triggered and after.triggered
    assert log.stats.fenced == 5 and log.stats.records == 2


def test_a_second_fence_does_not_report_the_first_ones_writes_again():
    # The flush a fence emptied resumes when its stall ends; a second
    # takeover inside that flush owns nothing of it.
    kernel = Kernel()
    log = DiskLog(kernel, flush_latency=0.2)
    log.inject_stall(1.0)
    done = log.append({"kind": "local_commit", "tid": "t1"})
    fenced = {}
    kernel.call_at(0.5, lambda: fenced.setdefault("first", log.fence()))
    kernel.call_at(1.1, lambda: fenced.setdefault("second", log.fence()))
    kernel.run(until=2.0)
    assert fenced == {"first": [{"kind": "local_commit", "tid": "t1"}], "second": []}
    assert log.stats.fenced == 1
    assert not done.triggered and log.payloads() == []


def test_injected_stall_holds_a_run():
    kernel = Kernel()
    log = DiskLog(kernel, flush_latency=0.001)
    log.inject_stall(0.05)
    done = log.append(["s1", "s2"], 2)
    kernel.run(until=0.04)
    assert not done.triggered and log.payloads() == []
    kernel.run(until=1.0)
    assert done.triggered and log.payloads() == [["s1", "s2"]]
    assert [entry.durable_at for entry in log.entries] == [pytest.approx(0.051)]


def test_append_many_rejects_an_empty_run():
    log = DiskLog(Kernel(), flush_latency=0.001)
    with pytest.raises(ValueError):
        log.append([], 0)


def test_flush_window_counts_records_not_entries():
    """A busy log holds a lone one-record entry open for company, but
    not a lone entry that already groups several records."""
    kernel = Kernel()
    log = DiskLog(kernel, flush_latency=0.010, flush_window=0.002)
    durable = {}

    def writer(delay, key, payload, records):
        yield kernel.timeout(delay)
        yield log.append(payload, records)
        durable[key] = kernel.now

    kernel.spawn(writer(0.0, "warm", "w", 1))
    kernel.spawn(writer(0.011, "chunk", ["c1", "c2"], 2))  # busy log, lone entry
    kernel.spawn(writer(0.032, "single", "s", 1))  # busy log, lone record
    kernel.run(until=1.0)
    assert durable["chunk"] == pytest.approx(0.021)
    assert durable["single"] == pytest.approx(0.044)
    assert log.stats.records == 4 and log.stats.max_batch == 2
