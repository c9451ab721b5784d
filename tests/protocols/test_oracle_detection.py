"""The one verifier is not vacuous: each rule it states rejects the
history or witness that breaks it.

The first half corrupts one aspect of a small real run -- a read value,
the server state a witness is read from, a client outcome -- and asserts
``backend.check()`` (or the lattice report) now fails.  The second half
hands :func:`repro.spec.acceptance.violations` literal histories and
witnesses that break exactly one rule, at the levels that state it.
"""

import pytest

from repro.protocols.consus import batched_commands
from repro.protocols.history import ABORTED, COMMITTED, ERROR
from repro.protocols.levels import (
    ALL_LEVELS,
    EVENTUAL,
    NMSI,
    PSI,
    SERIALIZABILITY,
    SNAPSHOT_ISOLATION,
    STRICT_SERIALIZABILITY,
)
from repro.protocols.registry import PROTOCOL_NAMES, build
from repro.spec.acceptance import TxRecord, Witness, violations

from .conftest import drive_workload

SNAPSHOT_LEVELS = [level for level in ALL_LEVELS if level != EVENTUAL]


def driven(name, seed=23, sessions_per_site=1, txs_per_session=4):
    backend = build(name, n_sites=3, seed=seed)
    drive_workload(backend, sessions_per_site, txs_per_session, seed=seed)
    return backend


def committed_with_read(history):
    for tx in history.committed():
        for kind, _key, _value in tx.ops:
            if kind == "read":
                return tx
    raise AssertionError("no committed transaction with a read")


def corrupt_first_read(tx):
    for i, (kind, key, _value) in enumerate(tx.ops):
        if kind == "read":
            tx.ops[i] = ("read", key, "fabricated-value-0xdead")
            return key
    raise AssertionError("no read to corrupt")


def properties(found):
    return {v.property_name for v in found}


# ----------------------------------------------------------------------
# Tampered runs
# ----------------------------------------------------------------------
def test_si_oracle_detects_fabricated_read():
    backend = driven("si")
    assert backend.check() == []
    corrupt_first_read(committed_with_read(backend.history))
    assert "read-value" in properties(backend.check())


def test_si_oracle_detects_duplicate_commit_ts():
    backend = driven("si")
    stamps = backend.primary.tx_timestamps
    writers = [tid for tid, (sts, cts) in stamps.items() if cts != sts]
    assert len(writers) >= 2
    # The later writer claims the earlier one's commit timestamp, which
    # breaks SI's single commit order.
    first, last = writers[0], writers[-1]
    stamps[last] = (stamps[last][0], stamps[first][1])
    assert backend.check()


def test_nmsi_oracle_detects_fabricated_read():
    backend = driven("nmsi")
    assert backend.check() == []
    corrupt_first_read(committed_with_read(backend.history))
    assert "read-value" in properties(backend.check())


def test_nmsi_oracle_detects_forged_read_forward_witness():
    backend = driven("nmsi")
    assert backend.check() == []
    # A version whose dependency vector reaches forward past a later
    # version of its own key "overwrote" it: the two versions then see
    # each other, and no order can list both after what they see.
    server = backend.servers[0]
    key, chain = next((k, c) for k, c in server.store.items() if len(c) >= 2)
    for replica in backend.servers:
        first = replica.store[key][0]
        depvec = list(first.depvec)
        depvec[chain[-1].ver[0]] = 10_000
        first.depvec = tuple(depvec)
    assert "visible-order" in properties(backend.check())


def test_consus_oracle_detects_fabricated_read():
    backend = driven("consus")
    assert backend.check() == []
    corrupt_first_read(committed_with_read(backend.history))
    assert "read-value" in properties(backend.check())


def test_consus_oracle_detects_forged_slot():
    backend = driven("consus")
    assert backend.check() == []
    # One replica claims a different command at slot 0.
    backend.servers[-1].chosen[0] = {"tid": "forged", "reads": {}, "writes": {"zk0": 1}}
    assert "consus-replica-agreement" in properties(backend.check())


def test_consus_oracle_detects_real_time_inversion():
    backend = driven("consus")
    assert backend.check() == []
    order = backend.witness().order
    assert len(order) >= 2
    # The last transaction in the log now claims to have finished before
    # the first one began.
    first = backend.history.by_tid(order[0])
    last = backend.history.by_tid(order[-1])
    last.begin, last.end = first.begin - 2.0, first.begin - 1.0
    assert "real-time" in properties(backend.check())


def test_consus_forged_log_outcome_is_rejected():
    backend = driven("consus")
    assert backend.check() == []
    victim = committed_with_read(backend.history).tid
    # Every replica's log now holds the victim's command with reads no
    # writer ever made, so replay aborts what the client saw commit.
    for server in backend.servers:
        for value in server.chosen.values():
            for entry in batched_commands(value.get("payload", value)):
                if entry["tid"] == victim:
                    entry["reads"] = {key: -1 for key in entry["reads"]}
    assert victim not in backend.witness().order
    assert "witness" in properties(backend.check())


def test_outcome_forgery_detected_for_consus():
    backend = driven("consus")
    aborted = [t for t in backend.history.transactions if t.status == ABORTED]
    assert aborted, "run produced no aborts to forge"
    # Claiming a commit for a transaction the replicated log never
    # committed must be flagged.
    aborted[0].status = COMMITTED
    assert "witness" in properties(backend.check())


def test_walter_trace_checker_detects_tampered_read():
    backend = driven("walter")
    assert backend.check() == []
    reads = backend.world.trace.reads
    assert reads
    target = next((r for r in reads if r.tid in backend.world.trace.transactions),
                  reads[0])
    target.value = "fabricated-value-0xdead"
    assert any(v for v in backend.check())


def test_walter_lattice_detects_tampered_history_read():
    backend = driven("walter")
    report = backend.lattice_report()
    assert not any(vs for vs in report.values())
    corrupt_first_read(committed_with_read(backend.history))
    report = backend.lattice_report()
    assert report[NMSI] and report[EVENTUAL]


@pytest.mark.parametrize("name", PROTOCOL_NAMES)
def test_dropped_read_from_writer_is_rejected(name):
    backend = driven(name)
    history = backend.history.transactions
    order, visible = backend.witness()
    writes = {t.tid: t.writes() for t in history}
    reader, writer = next(
        (t.tid, w)
        for t in history if t.tid in visible
        for key, value in t.reads() if value is not None
        for w in visible[t.tid] if writes[w].get(key) == value
    )
    tampered = dict(visible, **{reader: visible[reader] - {writer}})
    assert violations(backend.isolation, history, Witness(order, tampered))


@pytest.mark.parametrize("name", PROTOCOL_NAMES)
def test_swapped_conflicting_writers_are_rejected(name):
    backend = driven(name, sessions_per_site=2, txs_per_session=6)
    history = backend.history.transactions
    order, visible = backend.witness()
    writes = {t.tid: t.write_set() for t in history}
    a, b = next(
        (a, b) for b in order for a in visible[b] if writes[a] & writes[b]
    )
    # b no longer sees a, and a is made to see b instead: the order
    # still lists a first, so a's snapshot now holds a later writer.
    tampered = dict(visible, **{a: visible[a] | {b}, b: visible[b] - {a}})
    assert violations(backend.isolation, history, Witness(order, tampered))


# ----------------------------------------------------------------------
# One rule broken at a time, on literal histories
# ----------------------------------------------------------------------
def tx(tid, site, begin, end, *ops, status=COMMITTED):
    return TxRecord(tid, site, begin, end, status, ops)


@pytest.mark.parametrize("level", ALL_LEVELS)
def test_a_fabricated_read_is_rejected(level):
    history = [
        tx("w", 0, 0.0, 1.0, ("write", "x", 1)),
        tx("r", 0, 2.0, 3.0, ("read", "x", 2)),
    ]
    witness = Witness(["w", "r"], {"w": frozenset(), "r": frozenset({"w"})})
    expected = "no-fabrication" if level == EVENTUAL else "read-value"
    assert expected in properties(violations(level, history, witness))


@pytest.mark.parametrize("level", SNAPSHOT_LEVELS)
def test_a_visible_set_that_is_not_closed_is_rejected(level):
    history = [
        tx("w1", 0, 0.0, 1.0, ("write", "x", 1)),
        tx("w2", 0, 2.0, 3.0, ("read", "x", 1), ("write", "y", 1)),
        tx("r", 1, 2.5, 3.5, ("read", "y", 1), ("read", "x", None)),
    ]
    witness = Witness(
        ["w1", "w2", "r"],
        {"w1": frozenset(), "w2": frozenset({"w1"}), "r": frozenset({"w2"})},
    )
    assert "visible-closed" in properties(violations(level, history, witness))


@pytest.mark.parametrize("level", SNAPSHOT_LEVELS)
def test_conflicting_writers_that_cannot_see_each_other_are_rejected(level):
    history = [
        tx("w1", 0, 0.0, 1.0, ("write", "x", 1)),
        tx("w2", 1, 0.0, 1.0, ("write", "x", 2)),
    ]
    witness = Witness(["w1", "w2"], {"w1": frozenset(), "w2": frozenset()})
    assert "write-conflict" in properties(violations(level, history, witness))


@pytest.mark.parametrize("level", [STRICT_SERIALIZABILITY, SNAPSHOT_ISOLATION])
def test_a_real_time_inversion_is_rejected(level):
    history = [
        tx("a", 0, 0.0, 1.0, ("write", "x", 1)),
        tx("b", 1, 2.0, 3.0, ("read", "x", None)),
    ]
    witness = Witness(["b", "a"], {"b": frozenset(), "a": frozenset()})
    assert "real-time" in properties(violations(level, history, witness))
    # Timing-blind serializability accepts the same witness.
    assert violations(SERIALIZABILITY, history, witness) == []


def test_a_snapshot_that_is_not_a_prefix_is_rejected_under_si():
    history = [
        tx("w1", 0, 0.0, 1.0, ("write", "x", 1)),
        tx("w2", 0, 0.0, 1.0, ("write", "y", 1)),
        tx("r", 1, 0.5, 3.0, ("read", "x", None), ("read", "y", 1)),
    ]
    witness = Witness(
        ["w1", "w2", "r"],
        {"w1": frozenset(), "w2": frozenset(), "r": frozenset({"w2"})},
    )
    assert "snapshot-prefix" in properties(
        violations(SNAPSHOT_ISOLATION, history, witness)
    )
    assert violations(PSI, history, witness) == []


def test_a_same_site_regression_is_rejected_under_psi():
    history = [
        tx("w", 0, 0.0, 1.0, ("write", "x", 1)),
        tx("r1", 1, 2.0, 3.0, ("read", "x", 1)),
        tx("r2", 1, 4.0, 5.0, ("read", "x", None)),
    ]
    witness = Witness(
        ["w", "r1", "r2"],
        {"w": frozenset(), "r1": frozenset({"w"}), "r2": frozenset()},
    )
    assert "site-monotonic" in properties(violations(PSI, history, witness))
    assert violations(NMSI, history, witness) == []


@pytest.mark.parametrize("level", [PSI, NMSI])
def test_a_visible_writer_from_the_future_is_rejected(level):
    history = [
        tx("r", 0, 0.0, 1.0, ("read", "x", 1)),
        tx("w", 1, 2.0, 3.0, ("write", "x", 1)),
    ]
    witness = Witness(["w", "r"], {"w": frozenset(), "r": frozenset({"w"})})
    assert "visible-future" in properties(violations(level, history, witness))


@pytest.mark.parametrize("level", SNAPSHOT_LEVELS)
def test_an_error_writer_counts_iff_the_witness_orders_it(level):
    # The writer's commit reply was lost: its client saw ERROR and never
    # saw it end.  A reader that observed its value is explained only by
    # a witness that lists the writer as committed.
    history = [
        tx("w", 0, 0.0, None, ("write", "x", 1), status=ERROR),
        tx("r", 1, 2.0, 3.0, ("read", "x", 1)),
    ]
    listed = Witness(["w", "r"], {"w": frozenset(), "r": frozenset({"w"})})
    unlisted = Witness(["r"], {"r": frozenset()})
    assert violations(level, history, listed) == []
    assert "read-value" in properties(violations(level, history, unlisted))


@pytest.mark.parametrize("level", SNAPSHOT_LEVELS)
def test_a_committed_transaction_missing_from_the_order_is_rejected(level):
    history = [tx("w", 0, 0.0, 1.0, ("write", "x", 1))]
    assert "witness" in properties(violations(level, history, Witness([], {})))
