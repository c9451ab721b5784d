"""Unit tests for the discrete-event kernel."""

import pytest

from repro.sim import AllOf, Interrupt, Kernel, SimError, Timeout


def test_timeout_advances_clock():
    kernel = Kernel()

    def proc():
        yield kernel.timeout(5.0)
        return kernel.now

    assert kernel.run_process(proc()) == 5.0


def test_zero_delay_timeout_runs_same_time():
    kernel = Kernel()

    def proc():
        yield kernel.timeout(0.0)
        return kernel.now

    assert kernel.run_process(proc()) == 0.0


def test_negative_timeout_rejected():
    kernel = Kernel()
    with pytest.raises(ValueError):
        kernel.timeout(-1.0)


def test_process_return_value():
    kernel = Kernel()

    def child():
        yield kernel.timeout(1.0)
        return "result"

    def parent():
        value = yield kernel.spawn(child())
        return value

    assert kernel.run_process(parent()) == "result"


def test_join_already_finished_process():
    kernel = Kernel()

    def child():
        yield kernel.timeout(1.0)
        return 42

    def parent():
        proc = kernel.spawn(child())
        yield kernel.timeout(10.0)
        assert proc.done
        value = yield proc
        return value

    assert kernel.run_process(parent()) == 42


def test_event_trigger_wakes_waiters():
    kernel = Kernel()
    event = kernel.event()
    results = []

    def waiter(tag):
        value = yield event
        results.append((tag, value, kernel.now))

    def trigger():
        yield kernel.timeout(3.0)
        event.trigger("go")

    kernel.spawn(waiter("a"))
    kernel.spawn(waiter("b"))
    kernel.spawn(trigger())
    kernel.run()
    assert results == [("a", "go", 3.0), ("b", "go", 3.0)]


def test_event_double_trigger_is_error():
    kernel = Kernel()
    event = kernel.event()
    event.trigger(1)
    with pytest.raises(SimError):
        event.trigger(2)
    assert event.trigger_once(3) is False


def test_event_fail_raises_in_waiter():
    kernel = Kernel()
    event = kernel.event()

    def waiter():
        try:
            yield event
        except RuntimeError as exc:
            return "caught:%s" % exc
        return "no exception"

    def failer():
        yield kernel.timeout(1.0)
        event.fail(RuntimeError("boom"))

    proc = kernel.spawn(waiter())
    kernel.spawn(failer())
    kernel.run()
    assert proc.value == "caught:boom"


def test_exception_propagates_to_joiner():
    kernel = Kernel()

    def child():
        yield kernel.timeout(1.0)
        raise ValueError("child failed")

    def parent():
        try:
            yield kernel.spawn(child())
        except ValueError as exc:
            return str(exc)

    assert kernel.run_process(parent()) == "child failed"


def test_orphan_exception_surfaces_from_run():
    kernel = Kernel()

    def bad():
        yield kernel.timeout(1.0)
        raise ValueError("orphan")

    kernel.spawn(bad())
    with pytest.raises(ValueError, match="orphan"):
        kernel.run()


def test_same_time_events_fire_in_schedule_order():
    kernel = Kernel()
    order = []

    def proc(tag):
        yield kernel.timeout(1.0)
        order.append(tag)

    for tag in ["first", "second", "third"]:
        kernel.spawn(proc(tag))
    kernel.run()
    assert order == ["first", "second", "third"]


def test_run_until_stops_clock():
    kernel = Kernel()

    def proc():
        yield kernel.timeout(100.0)

    kernel.spawn(proc())
    stopped_at = kernel.run(until=10.0)
    assert stopped_at == 10.0
    assert kernel.now == 10.0


def test_run_until_past_queue_end_advances_clock():
    kernel = Kernel()
    assert kernel.run(until=50.0) == 50.0


def test_cannot_schedule_in_past():
    kernel = Kernel()

    def proc():
        yield kernel.timeout(5.0)
        with pytest.raises(SimError):
            kernel.call_at(1.0, lambda: None)

    kernel.run_process(proc())


def test_yield_non_waitable_is_error():
    kernel = Kernel()

    def bad():
        yield 42

    def parent():
        try:
            yield kernel.spawn(bad())
        except SimError as exc:
            return "caught: %s" % exc

    assert "not a Waitable" in kernel.run_process(parent())


def test_all_of_collects_results_in_order():
    kernel = Kernel()

    def child(delay, value):
        yield kernel.timeout(delay)
        return value

    def parent():
        procs = [kernel.spawn(child(3.0, "slow")), kernel.spawn(child(1.0, "fast"))]
        values = yield AllOf(procs)
        return (values, kernel.now)

    values, now = kernel.run_process(parent())
    assert values == ["slow", "fast"]
    assert now == 3.0


def test_all_of_empty_completes_immediately():
    kernel = Kernel()

    def parent():
        values = yield AllOf([])
        return values

    assert kernel.run_process(parent()) == []


def test_interrupt_raises_in_process():
    kernel = Kernel()

    def sleeper():
        try:
            yield kernel.timeout(100.0)
        except Interrupt as intr:
            return ("interrupted", intr.cause, kernel.now)
        return "finished"

    def interrupter(target):
        yield kernel.timeout(2.0)
        target.interrupt("shutdown")

    proc = kernel.spawn(sleeper())
    kernel.spawn(interrupter(proc))
    kernel.run()
    assert proc.value == ("interrupted", "shutdown", 2.0)


def test_interrupt_after_done_is_noop():
    kernel = Kernel()

    def quick():
        yield kernel.timeout(1.0)
        return "ok"

    proc = kernel.spawn(quick())
    kernel.run()
    proc.interrupt()
    kernel.run()
    assert proc.value == "ok"


def test_deterministic_replay():
    def build_and_run():
        kernel = Kernel()
        trace = []

        def proc(tag, delay):
            yield kernel.timeout(delay)
            trace.append((tag, kernel.now))
            yield kernel.timeout(delay)
            trace.append((tag, kernel.now))

        kernel.spawn(proc("a", 1.5))
        kernel.spawn(proc("b", 1.5))
        kernel.spawn(proc("c", 0.5))
        kernel.run()
        return trace

    assert build_and_run() == build_and_run()


def test_process_value_before_done_raises():
    kernel = Kernel()

    def proc():
        yield kernel.timeout(1.0)

    handle = kernel.spawn(proc())
    with pytest.raises(SimError):
        _ = handle.value


def test_timeout_carries_value():
    kernel = Kernel()

    def proc():
        value = yield Timeout(1.0, value="payload")
        return value

    assert kernel.run_process(proc()) == "payload"
