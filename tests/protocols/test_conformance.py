"""Cross-protocol conformance: one seeded workload, four protocols, each
judged by its own oracle and by the inclusion lattice.

The same deterministic workload runs through every backend in the
registry.  Each run's witness, read from server state, must (a) pass the
verifier at the protocol's own level, (b) pass it at every *weaker*
level too -- a strict-serializable witness is in particular an
SI/PSI/NMSI witness, a PSI witness an NMSI one, and every run is
eventually consistent.
"""

import pytest

from repro.protocols.levels import (
    EVENTUAL,
    LATTICE_CHAIN,
    NMSI,
    PSI,
    SNAPSHOT_ISOLATION,
    STRICT_SERIALIZABILITY,
    level_index,
    weaker_levels,
)
from repro.protocols.registry import PROTOCOL_NAMES, build, get_protocol

from .conftest import drive_workload

# Build + drive each protocol once for the whole module: the subsequent
# tests interrogate the same deterministic run from different angles.
_driven = {}


def driven(name):
    if name not in _driven:
        backend = build(name, n_sites=3, seed=11)
        errors = drive_workload(backend)
        _driven[name] = (backend, errors)
    return _driven[name]


@pytest.mark.parametrize("name", PROTOCOL_NAMES)
def test_own_oracle_accepts_the_run(name):
    backend, _errors = driven(name)
    violations = backend.check()
    assert violations == [], "\n".join(str(v) for v in violations)


@pytest.mark.parametrize("name", PROTOCOL_NAMES)
def test_lattice_inclusion_holds(name):
    backend, _errors = driven(name)
    report = backend.lattice_report()
    flat = [
        "[%s] %s" % (level, v) for level, vs in report.items() for v in vs
    ]
    assert not flat, "\n".join(flat)


@pytest.mark.parametrize("name", PROTOCOL_NAMES)
def test_lattice_report_covers_every_weaker_checkable_level(name):
    backend, _errors = driven(name)
    report = backend.lattice_report()
    # Exactly the levels below the protocol's own, eventual included.
    assert EVENTUAL in report
    assert list(report) == weaker_levels(backend.isolation)


@pytest.mark.parametrize("name", PROTOCOL_NAMES)
def test_workload_made_progress(name):
    backend, errors = driven(name)
    tally = backend.history.outcome_tally()
    assert tally.get("COMMITTED", 0) >= 5, (tally, errors)


@pytest.mark.parametrize("name", PROTOCOL_NAMES)
def test_every_transaction_reached_a_terminal_state(name):
    backend, _errors = driven(name)
    for tx in backend.history.transactions:
        assert tx.status in ("COMMITTED", "ABORTED", "ERROR"), (
            "%s left %s in state %s" % (name, tx.tid, tx.status)
        )
        assert tx.end is not None


def test_all_protocols_attempted_identical_transaction_counts():
    counts = {
        name: len(driven(name)[0].history.transactions)
        for name in PROTOCOL_NAMES
    }
    assert len(set(counts.values())) == 1, counts


def test_isolation_levels_span_the_chain():
    levels = {name: get_protocol(name).isolation for name in PROTOCOL_NAMES}
    assert levels["consus"] == STRICT_SERIALIZABILITY
    assert levels["si"] == SNAPSHOT_ISOLATION
    assert levels["walter"] == PSI
    assert levels["nmsi"] == NMSI
    # Strongest-to-weakest ordering mirrors the lattice chain.
    assert sorted(levels.values(), key=level_index) == [
        lvl for lvl in LATTICE_CHAIN if lvl != EVENTUAL
    ]
