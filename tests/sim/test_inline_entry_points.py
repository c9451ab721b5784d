"""Tests for the kernel's two inline entry points, ``Kernel.spawn_now``
and ``Event.complete_now``: what ``spawn`` / ``trigger`` / ``fail`` do,
minus the ready-queue hop (``tests/sim/test_kernel.py`` covers those)."""

import pytest

from repro.sim import Kernel, SimError


def test_spawn_now_takes_first_step_before_returning():
    kernel = Kernel()
    log = []

    def body():
        log.append("first step")
        yield kernel.timeout(1.0)
        log.append("second step")
        return 7

    deferred = kernel.spawn(body())
    assert log == []  # spawn: nothing ran yet
    proc = kernel.spawn_now(body())
    assert log == ["first step"] and not proc.done
    kernel.run()
    assert proc.value == 7 and deferred.value == 7
    # 1 start + 1 timeout for the spawned process, the timeout alone for
    # the inline one.
    assert kernel.events_executed == 3


def test_spawn_now_process_may_finish_or_fail_in_its_first_step():
    kernel = Kernel()

    def instant():
        return "done"
        yield  # pragma: no cover - makes this a generator

    def broken():
        raise ValueError("first step failed")
        yield  # pragma: no cover

    assert kernel.spawn_now(instant()).value == "done"
    failed = kernel.spawn_now(broken())
    assert failed.done
    kernel.call_soon(lambda: None)
    with pytest.raises(ValueError, match="first step failed"):
        kernel.run()  # an unjoined failure still surfaces from run()


def test_complete_now_wakes_waiters_inline_in_subscription_order():
    kernel = Kernel()
    event = kernel.event("e")
    log = []

    def waiter(tag):
        value = yield event
        log.append((tag, value, kernel.now))

    kernel.spawn(waiter("a"))
    kernel.spawn(waiter("b"))
    kernel.run()
    executed = kernel.events_executed
    event.complete_now(42)
    assert log == [("a", 42, 0.0), ("b", 42, 0.0)]  # before any kernel step
    assert event.triggered and event.value == 42
    kernel.spawn(waiter("late"))  # a done event is a done event
    kernel.run()
    assert log[-1] == ("late", 42, 0.0)
    assert kernel.events_executed == executed + 2  # only the late waiter's
    with pytest.raises(SimError, match="triggered twice"):
        event.complete_now(43)


def test_complete_now_with_exception_raises_inside_waiters():
    kernel = Kernel()
    event = kernel.event("e")

    def waiter():
        try:
            yield event
        except KeyError as exc:
            return "caught %s" % exc

    proc = kernel.spawn(waiter())
    kernel.run()
    event.complete_now(exc=KeyError("k"))
    assert proc.done and proc.value == "caught 'k'"
