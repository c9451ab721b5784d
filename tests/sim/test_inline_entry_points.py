"""Tests for the kernel's inline entry point ``Event.complete_now``: what
``trigger`` / ``fail`` do, minus the ready-queue hop
(``tests/sim/test_kernel.py`` covers those)."""

import pytest

from repro.sim import Kernel, SimError


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
