"""Client-API lifecycle conformance, parametrized over the registry.

Every protocol exposes the same session surface; these tests pin the
semantics every member of the zoo must share regardless of isolation
level: read-your-writes inside a transaction, abort discarding buffered
writes, committed values becoming visible to later same-site
transactions, and faithful history bookkeeping.
"""

import pytest


def run(backend, gen, within=120.0):
    return backend.kernel.run_process(gen, until=backend.kernel.now + within)


def writer_site(backend):
    return backend.writable_sites[0]


def test_read_your_own_write(backend):
    site = writer_site(backend)
    session = backend.session(site)

    def tx():
        tid = yield from session.begin()
        yield from session.write(tid, "lk1", "mine")
        value = yield from session.read(tid, "lk1")
        yield from session.commit(tid)
        return value

    assert run(backend, tx()) == "mine"


def test_initial_read_is_none(backend):
    session = backend.session(writer_site(backend))

    def tx():
        tid = yield from session.begin()
        value = yield from session.read(tid, "lk-never-written")
        yield from session.commit(tid)
        return value

    assert run(backend, tx()) is None


def test_abort_discards_writes(backend):
    site = writer_site(backend)
    session = backend.session(site)

    def aborted_writer():
        tid = yield from session.begin()
        yield from session.write(tid, "lk2", "ghost")
        yield from session.abort(tid)

    run(backend, aborted_writer())
    backend.settle(20.0)

    def reader():
        tid = yield from session.begin()
        value = yield from session.read(tid, "lk2")
        yield from session.commit(tid)
        return value

    assert run(backend, reader()) is None


def test_commit_becomes_visible_to_later_same_site_tx(backend):
    site = writer_site(backend)
    session = backend.session(site)

    def writer():
        tid = yield from session.begin()
        yield from session.write(tid, "lk3", "durable")
        status = yield from session.commit(tid)
        return status

    assert run(backend, writer()) == "COMMITTED"
    backend.settle(20.0)

    def reader():
        tid = yield from session.begin()
        value = yield from session.read(tid, "lk3")
        yield from session.commit(tid)
        return value

    assert run(backend, reader()) == "durable"


def test_repeatable_read_within_a_transaction(backend):
    site = writer_site(backend)
    setup = backend.session(site)

    def writer(value):
        def gen():
            tid = yield from setup.begin()
            yield from setup.write(tid, "lk4", value)
            yield from setup.commit(tid)

        return gen()

    run(backend, writer("v1"))
    backend.settle(20.0)

    reader = backend.session(site)
    outcome = {}

    def read_twice():
        tid = yield from reader.begin()
        outcome["first"] = yield from reader.read(tid, "lk4")
        run_concurrent = backend.kernel.spawn(writer("v2"), name="interloper")
        while not run_concurrent.done:
            yield backend.kernel.timeout(0.5)
        outcome["second"] = yield from reader.read(tid, "lk4")
        yield from reader.commit(tid)

    run(backend, read_twice())
    assert outcome["first"] == "v1"
    assert outcome["second"] == outcome["first"], (
        "non-repeatable read: %r then %r" % (outcome["first"], outcome["second"])
    )


def test_history_records_ops_and_outcomes(backend):
    site = writer_site(backend)
    session = backend.session(site)

    def tx():
        tid = yield from session.begin()
        yield from session.read(tid, "lk5")
        yield from session.write(tid, "lk5", "x")
        status = yield from session.commit(tid)
        return tid, status

    tid, status = run(backend, tx())
    record = backend.history.by_tid(tid)
    assert record.status == status == "COMMITTED"
    assert ("read", "lk5", None) in record.ops
    assert ("write", "lk5", "x") in record.ops
    assert record.site == site
    assert record.end >= record.begin
    assert backend.history.outcome_tally().get("COMMITTED", 0) >= 1


def test_oracle_passes_on_lifecycle_history(backend):
    session = backend.session(writer_site(backend))

    def tx(i):
        def gen():
            tid = yield from session.begin()
            value = yield from session.read(tid, "lk6")
            yield from session.write(tid, "lk6", "gen%d:%s" % (i, value))
            yield from session.commit(tid)

        return gen()

    for i in range(3):
        run(backend, tx(i))
    backend.settle(20.0)
    violations = backend.check()
    assert violations == [], "\n".join(str(v) for v in violations)
